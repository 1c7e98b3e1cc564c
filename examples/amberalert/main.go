// Amber alert: the paper's mobile-A3 scenario. A kidnapper-search service
// scans dash-camera frames for a target license plate while the vehicle
// drives; elastic management re-picks the execution pipeline as network
// conditions change with speed, and matches are shared with the
// vehicle-recorder service through the authenticated Data Sharing module.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/edgeos"
	"repro/internal/sensors"
	"repro/internal/tasks"
)

const targetPlate = "KDN-777"

func main() {
	if err := run(); err != nil {
		log.Fatal("amberalert: ", err)
	}
}

func run() error {
	dataDir, err := os.MkdirTemp("", "openvdap-amber-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	platform, err := core.New(core.DefaultConfig(dataDir))
	if err != nil {
		return err
	}
	defer platform.Close()

	// Install the polymorphic search service.
	svc := &edgeos.Service{
		Name:     "kidnapper-search",
		Priority: edgeos.PriorityInteractive,
		Deadline: 2 * time.Second,
		DAG:      tasks.ALPR(),
		Image:    []byte("mobile-a3-v1"),
	}
	if err := platform.InstallService(svc); err != nil {
		return err
	}

	// Wire data sharing: A3 publishes matches; the recorder subscribes.
	sharing := platform.Sharing()
	a3Tok, err := sharing.Enroll("kidnapper-search")
	if err != nil {
		return err
	}
	recTok, err := sharing.Enroll("vehicle-recorder")
	if err != nil {
		return err
	}
	if err := sharing.Grant("a3-matches", "kidnapper-search", "pub"); err != nil {
		return err
	}
	if err := sharing.Grant("a3-matches", "vehicle-recorder", "sub"); err != nil {
		return err
	}

	camera, err := sensors.NewCamera(1280, 720, 2.5, platform.Engine().RNG().Fork())
	if err != nil {
		return err
	}

	fmt.Println("== AMBER alert search (mobile A3) ==")
	fmt.Printf("target plate: %s\n\n", targetPlate)

	// Drive three legs at different speeds; scan one frame per second.
	legs := []struct {
		mph     float64
		seconds int
	}{
		{0, 20},  // parked at a light: offloading is cheap
		{35, 30}, // urban cruise
		{70, 30}, // highway: cellular degrades, pipelines adapt
	}
	// The suspect vehicle passes twice during the drive.
	sightings := map[int]bool{25: true, 61: true}
	matches := 0
	elapsed := 0
	pipelineUse := map[string]int{}
	for _, leg := range legs {
		platform.SetSpeedMPH(leg.mph)
		var legLatency time.Duration
		for s := 0; s < leg.seconds; s++ {
			frame := camera.Capture(platform.Engine().Now())
			elapsed++
			if sightings[elapsed] {
				frame.Plates = append(frame.Plates, targetPlate)
			}
			res, err := platform.InvokeService("kidnapper-search")
			if err != nil {
				return err
			}
			if res.HungUp {
				continue
			}
			legLatency += res.Latency
			pipelineUse[res.Pipeline]++
			// The recognizer stage "reads" the frame's plates; a match is
			// published to the recorder.
			for _, plate := range frame.Plates {
				if plate == targetPlate {
					matches++
					payload := fmt.Sprintf(`{"plate":%q,"at":%.1f,"x":%.1f}`,
						plate, platform.Engine().Now().Seconds(), frame.At.Seconds())
					if err := sharing.Publish("kidnapper-search", a3Tok, "a3-matches",
						platform.Engine().Now(), []byte(payload)); err != nil {
						return err
					}
				}
			}
			// Advance one second of driving between frames.
			if err := platform.Engine().RunUntil(platform.Engine().Now() + time.Second); err != nil {
				return err
			}
		}
		st, err := platform.Elastic().Stats("kidnapper-search")
		if err != nil {
			return err
		}
		avg := time.Duration(0)
		if n := leg.seconds; n > 0 {
			avg = legLatency / time.Duration(n)
		}
		fmt.Printf("leg @ %2.0f MPH: avg scan latency %8v, hang-ups so far %d\n",
			leg.mph, avg.Round(time.Millisecond), st.HangUps)
	}

	fmt.Printf("\npipeline usage across the drive: %v\n", pipelineUse)
	got, err := sharing.Fetch("vehicle-recorder", recTok, "a3-matches", 0)
	if err != nil {
		return err
	}
	fmt.Printf("recorder received %d match report(s); camera showed the plate %d time(s)\n",
		len(got), matches)
	for _, m := range got {
		fmt.Printf("  match from %s at t=%v: %s\n", m.From, m.At.Round(time.Second), m.Payload)
	}
	return nil
}
