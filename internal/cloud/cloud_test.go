package cloud

import (
	"sync"
	"testing"

	"repro/internal/network"
)

func TestNew(t *testing.T) {
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if c.Site() == nil || c.Data() == nil {
		t.Fatal("cloud missing site or data server")
	}
}

func TestDataServerIngestAndQuery(t *testing.T) {
	d := NewDataServer()
	d.Ingest("p1", 2, 3)
	d.Ingest("p2", 1, 3)
	d.Ingest("p1", 0, 0)
	if d.Count() != 3 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Bytes() != 6 {
		t.Fatalf("Bytes = %d", d.Bytes())
	}
	for vehicle, want := range map[string]int{"p1": 2, "p2": 1, "p3": 0} {
		if got := d.Records(vehicle); got != want {
			t.Fatalf("Records(%q) = %d, want %d", vehicle, got, want)
		}
	}
}

func TestDataServerConcurrentIngest(t *testing.T) {
	d := NewDataServer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.Ingest("p", 1, 2)
			}
		}()
	}
	wg.Wait()
	if d.Count() != 800 || d.Records("p") != 800 {
		t.Fatalf("Count = %d, Records = %d after concurrent ingest, want 800", d.Count(), d.Records("p"))
	}
	if d.Bytes() != 1600 {
		t.Fatalf("Bytes = %d, want 1600", d.Bytes())
	}
}

func TestMigrationCost(t *testing.T) {
	lte, _ := network.LookupLink("lte")
	wan, _ := network.LookupLink("wan")
	path := network.Path{Name: "up", Links: []network.LinkSpec{lte, wan}}
	d, err := MigrationCost(path, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("non-positive migration cost")
	}
	if _, err := MigrationCost(path, -1); err == nil {
		t.Fatal("negative size accepted")
	}
}
