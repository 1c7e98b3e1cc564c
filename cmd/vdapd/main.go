// Command vdapd runs one OpenVDAP vehicle node: it assembles the full
// platform (VCU, EdgeOSv, DDI, libvdap), installs the built-in services,
// starts periodic data collection, advances the simulation in real time,
// and serves the libvdap RESTful API.
//
// Usage:
//
//	vdapd -listen :8947 -data ./vdap-data -speed 35
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/edgeos"
	"repro/internal/obs"
	"repro/internal/tasks"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8947", "API listen address")
		dataDir  = flag.String("data", "", "DDI data directory (default: temp)")
		speedMPH = flag.Float64("speed", 35, "vehicle cruise speed, MPH")
		seed     = flag.Int64("seed", 1, "simulation seed")
		tick     = flag.Duration("tick", 250*time.Millisecond, "wall-clock per virtual second")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file at shutdown")
		sample   = flag.Duration("sample", obs.DefaultSampleInterval,
			"virtual-time metric sampling interval for /api/v1/metrics/series (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"graceful-shutdown budget: in-flight requests and streams get this long to finish (0 closes immediately)")
	)
	flag.Parse()
	if err := run(*listen, *dataDir, *speedMPH, *seed, *tick, *traceOut, *sample, *drainTimeout); err != nil {
		log.Fatal("vdapd: ", err)
	}
}

// buildPlatform assembles the vehicle node with the paper's four built-in
// service types (§II) installed and data collection running.
func buildPlatform(dataDir string, speedMPH float64, seed int64) (*core.Platform, error) {
	cfg := core.DefaultConfig(dataDir)
	cfg.Seed = seed
	cfg.SpeedMPH = speedMPH
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	services := []*edgeos.Service{
		{
			Name: "pedestrian-alert", Priority: edgeos.PrioritySafety,
			Deadline: 500 * time.Millisecond, DAG: tasks.PedestrianAlert(),
			TEE: true, Image: []byte("pedestrian-alert-v1"),
		},
		{
			Name: "real-time-diagnostics", Priority: edgeos.PriorityInteractive,
			Deadline: 2 * time.Second, DAG: tasks.Diagnostics(),
			Image: []byte("diagnostics-v1"),
		},
		{
			Name: "infotainment", Priority: edgeos.PriorityBackground,
			DAG: tasks.InfotainmentDecode(), Image: []byte("infotainment-v1"),
		},
		{
			Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
			Deadline: 2 * time.Second, DAG: tasks.ALPR(),
			Image: []byte("mobile-a3-v1"),
		},
	}
	for _, s := range services {
		if err := p.InstallService(s); err != nil {
			p.Close()
			return nil, fmt.Errorf("install %s: %w", s.Name, err)
		}
	}
	if err := p.StartCollection(time.Second); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// dumpTrace writes the platform's recorded spans as Chrome trace_event
// JSON (open in chrome://tracing or Perfetto).
func dumpTrace(p *core.Platform, path string) error {
	out, err := p.Tracer().ChromeTrace()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %d spans to %s", p.Tracer().SpanCount(), path)
	return nil
}

func run(listen, dataDir string, speedMPH float64, seed int64, tick time.Duration, traceOut string, sample, drainTimeout time.Duration) error {
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "vdapd-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	p, err := buildPlatform(dataDir, speedMPH, seed)
	if err != nil {
		return err
	}
	defer p.Close()
	for _, s := range p.Elastic().Services() {
		log.Printf("installed service %s (priority %d)", s.Name, s.Priority)
	}
	if sample > 0 {
		if err := p.StartSampling(sample); err != nil {
			return err
		}
		log.Printf("sampling metrics every %v of virtual time (GET /api/v1/metrics/series, /api/v1/events, /api/v1/stream)", sample)
	}

	srv := &http.Server{Addr: listen, Handler: p.API(), ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("libvdap API on http://%s/api/v1/status (virtual time advances 1s per %v)", listen, tick)

	if traceOut != "" {
		log.Printf("will write Chrome trace to %s at shutdown (live: GET /api/v1/trace)", traceOut)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// AdvanceTo holds the API server's run lock for the step, so
			// in-flight handlers never observe a half-advanced platform.
			if err := p.AdvanceTo(p.Engine().Now() + time.Second); err != nil {
				srv.Close()
				return err
			}
		case err := <-errCh:
			return err
		case <-stop:
			log.Printf("draining at virtual time %v (budget %v)", p.Engine().Now(), drainTimeout)
			if traceOut != "" {
				if err := dumpTrace(p, traceOut); err != nil {
					log.Printf("trace dump: %v", err)
				}
			}
			if drainTimeout <= 0 {
				fmt.Println(p.Report())
				return srv.Close()
			}
			// Two-stage drain: the libvdap server stops admission and
			// finishes in-flight work (streams get a final frame), then the
			// HTTP listener closes out whatever keep-alive conns remain.
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := p.Server().Shutdown(ctx); err != nil {
				log.Printf("drain: %v", err)
			}
			fmt.Println(p.Report())
			if err := srv.Shutdown(ctx); err != nil {
				return srv.Close()
			}
			return nil
		}
	}
}
