// pBEAM: the paper's §IV-E personalized driving-behavior pipeline, end to
// end with real training and real compression: a common model (cBEAM) is
// trained on population data "in the cloud", compressed with Deep
// Compression (prune → weight sharing → Huffman), shipped to the vehicle,
// fine-tuned on the driver's own telemetry into pBEAM, registered in the
// libvdap model library, and served through the RESTful API — where an
// insurance-style client scores the driver.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/core"
	"repro/internal/libvdap"
	"repro/internal/models"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("pbeam: ", err)
	}
}

func run() error {
	dataDir, err := os.MkdirTemp("", "openvdap-pbeam-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	platform, err := core.New(core.DefaultConfig(dataDir))
	if err != nil {
		return err
	}
	defer platform.Close()

	fmt.Println("== pBEAM: cloud pre-train -> compress -> edge transfer-learn ==")
	driver := models.SyntheticDriver("alice", 4242)
	res, err := models.BuildPBEAM(driver, sim.NewRNG(4242))
	if err != nil {
		return err
	}
	st := res.CompressStats
	fmt.Printf("cBEAM:   %d params, %d bytes dense\n", res.CBEAM.ParamCount(), st.OriginalBytes)
	fmt.Printf("shipped: %d bytes after Deep Compression (%.1fx, %.0f%% pruned, %d-bit codebooks)\n",
		st.CompressedBytes, st.Ratio, st.PrunedFraction*100, st.CodebookBits)
	fmt.Printf("accuracy on %s's own held-out driving data:\n", driver.Name)
	fmt.Printf("  population cBEAM      %.1f%%\n", res.CBEAMDriverAccuracy*100)
	fmt.Printf("  compressed cBEAM      %.1f%%\n", res.CompressedDriverAccuracy*100)
	fmt.Printf("  personalized pBEAM    %.1f%%\n", res.PBEAMDriverAccuracy*100)

	// Register both models in the vehicle's library.
	reg := platform.Registry()
	if err := reg.RegisterMLP("cbeam", libvdap.KindDrivingBehavior, res.CBEAM, false, false, 0.05); err != nil {
		return err
	}
	if err := reg.RegisterMLP("pbeam-alice", libvdap.KindDrivingBehavior, res.PBEAM, true, true, 0.02); err != nil {
		return err
	}

	// A third-party client (e.g. an insurer's app) scores the driver over
	// the RESTful API using pBEAM.
	ts := httptest.NewServer(platform.API())
	defer ts.Close()
	client, err := libvdap.NewClient(ts.URL, nil)
	if err != nil {
		return err
	}
	sample, err := models.GenerateDataset(200, driver, sim.NewRNG(777))
	if err != nil {
		return err
	}
	counts := make([]int, models.NumStyles)
	for i := range sample.X {
		resp, err := client.Predict("pbeam-alice", sample.X[i])
		if err != nil {
			return err
		}
		counts[resp.Class]++
	}
	names := []string{"cautious", "normal", "aggressive"}
	fmt.Printf("\ninsurer scored %d trips over the API:\n", sample.Len())
	for c, n := range counts {
		fmt.Printf("  %-10s %3d trips (%.0f%%)\n", names[c], n, 100*float64(n)/float64(sample.Len()))
	}
	aggressiveShare := float64(counts[models.StyleAggressive]) / float64(sample.Len())
	verdict := "standard premium"
	if aggressiveShare > 0.45 {
		verdict = "premium surcharge"
	} else if aggressiveShare < 0.25 {
		verdict = "safe-driver discount"
	}
	fmt.Printf("underwriting verdict: %s\n", verdict)
	return nil
}
