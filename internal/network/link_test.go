package network

import (
	"math"
	"testing"
	"time"
)

func TestCatalogAllValid(t *testing.T) {
	cat := Catalog()
	if len(cat) < 6 {
		t.Fatalf("catalog has %d links, want >= 6", len(cat))
	}
	for name, l := range cat {
		if err := l.Validate(); err != nil {
			t.Errorf("link %s invalid: %v", name, err)
		}
	}
}

func TestLookupLink(t *testing.T) {
	l, err := LookupLink("lte")
	if err != nil || l.Tech != LTE {
		t.Fatalf("LookupLink(lte) = %v, %v", l, err)
	}
	if _, err := LookupLink("carrier-pigeon"); err == nil {
		t.Fatal("unknown link lookup succeeded")
	}
}

func TestLinkValidate(t *testing.T) {
	bad := []LinkSpec{
		{},
		{Name: "x", UpMbps: 0, DownMbps: 10},
		{Name: "x", UpMbps: 10, DownMbps: 0},
		{Name: "x", UpMbps: 10, DownMbps: 10, BaseLoss: 1},
		{Name: "x", UpMbps: 10, DownMbps: 10, BaseLoss: -0.1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: Validate passed for %+v", i, l)
		}
	}
}

func TestTransferTime(t *testing.T) {
	l := LinkSpec{Name: "t", Tech: WiFi, UpMbps: 8, DownMbps: 80, RTT: 10 * time.Millisecond}
	// 1 MB at 8 Mbps = 1s + RTT.
	up, err := l.TransferTime(1e6, Uplink)
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Second + 10*time.Millisecond; up != want {
		t.Fatalf("uplink transfer = %v, want %v", up, want)
	}
	down, _ := l.TransferTime(1e6, Downlink)
	if want := 100*time.Millisecond + 10*time.Millisecond; down != want {
		t.Fatalf("downlink transfer = %v, want %v", down, want)
	}
	zero, _ := l.TransferTime(0, Uplink)
	if zero != l.RTT {
		t.Fatalf("zero-byte transfer = %v, want RTT", zero)
	}
	if _, err := l.TransferTime(-1, Uplink); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestTransferTimeLossInflation(t *testing.T) {
	clean := LinkSpec{Name: "c", UpMbps: 8, DownMbps: 8}
	lossy := LinkSpec{Name: "l", UpMbps: 8, DownMbps: 8, BaseLoss: 0.5}
	tc, _ := clean.TransferTime(1e6, Uplink)
	tl, _ := lossy.TransferTime(1e6, Uplink)
	if math.Abs(float64(tl)/float64(tc)-2) > 1e-9 {
		t.Fatalf("50%% loss should double transfer time: clean %v lossy %v", tc, tl)
	}
}

func TestPathTransferAndBottleneck(t *testing.T) {
	lte, _ := LookupLink("lte")
	wan, _ := LookupLink("wan")
	p := Path{Name: "vehicle-cloud", Links: []LinkSpec{lte, wan}}
	total, err := p.TransferTime(1e6, Uplink)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := lte.TransferTime(1e6, Uplink)
	t2, _ := wan.TransferTime(1e6, Uplink)
	if total != t1+t2 {
		t.Fatalf("path transfer = %v, want %v", total, t1+t2)
	}
	if p.RTT() != lte.RTT+wan.RTT {
		t.Fatalf("path RTT = %v, want sum", p.RTT())
	}
	var empty Path
	if _, err := empty.TransferTime(1, Uplink); err == nil {
		t.Fatal("empty path transfer succeeded")
	}
}

func TestTechString(t *testing.T) {
	if DSRC.String() != "dsrc" || FiveG.String() != "5g" || Tech(77).String() != "tech(77)" {
		t.Fatal("tech names wrong")
	}
}

func TestOneWayLatency(t *testing.T) {
	l := LinkSpec{Name: "x", UpMbps: 1, DownMbps: 1, RTT: 20 * time.Millisecond}
	if l.OneWayLatency() != 10*time.Millisecond {
		t.Fatalf("one-way = %v, want 10ms", l.OneWayLatency())
	}
}
