// pok-serve is the distributed-simulation fleet CLI: one binary runs
// the coordinator (HTTP job API + live dashboard), the workers, and
// the submit/status client modes.
//
// Usage:
//
//	pok-serve -listen 127.0.0.1:8080 -lease 10s      # coordinator + dashboard
//	pok-serve -listen 127.0.0.1:8080 -journal dir    # crash-safe coordinator
//	pok-serve -worker -coordinator http://host:8080  # attach a worker
//	pok-serve -submit job.json -coordinator http://host:8080 -wait
//	pok-serve -status -coordinator http://host:8080  # one-shot fleet view
//
// With -journal the coordinator appends every state transition to a
// write-ahead journal and replays it on startup, so a crashed (even
// SIGKILLed) coordinator restarts with its jobs, queue and live leases
// intact — workers reconnect through their existing lease IDs and the
// campaign resumes where the journal left it. SIGTERM drains
// gracefully: leasing stops, in-flight leases run to completion (or
// TTL expiry), a clean-shutdown marker is journaled, and the HTTP
// server shuts down.
//
// Jobs are JSON JobSpecs (see internal/serve); existing campaigns
// submit themselves with `pok-soak -submit` / `pok-bench -submit`
// without a spec file. The coordinator keeps one view of the fleet
// (jobs with their wavefront, telemetry and deduped findings; workers;
// the sample ring), served as JSON at /api/metrics — what -status
// prints — and as Prometheus text at /metrics (scrapeable with a stock
// scrape_config, no extra deps). The dashboard at / renders that view:
// the job wavefront, per-worker throughput, streaming CPI-stack bars
// and the deduped findings feed. It is self-contained — `curl
// http://host:8080/ -o dashboard.html` archives a snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pok/internal/metrics"
	"pok/internal/serve"
)

func main() {
	listen := flag.String("listen", "", "coordinator mode: address to serve the HTTP API + dashboard on (e.g. 127.0.0.1:8080)")
	lease := flag.Duration("lease", 10*time.Second, "coordinator: lease TTL before a silent worker's cell is requeued")
	journal := flag.String("journal", "", "coordinator: write-ahead journal directory; replayed on startup to recover state after a crash")
	drain := flag.Duration("drain", 30*time.Second, "coordinator: max time to wait for in-flight leases on SIGTERM before shutting down anyway")
	worker := flag.Bool("worker", false, "worker mode: pull and execute cells")
	coordinator := flag.String("coordinator", "", "coordinator URL for -worker/-submit/-status")
	name := flag.String("name", "", "worker name (default worker-<pid>)")
	out := flag.String("out", "fleet-worker-out", "worker: output directory for repro bundles")
	poll := flag.Duration("poll", 500*time.Millisecond, "worker: idle-queue poll interval / submit: status poll interval")
	maxCells := flag.Int("max-cells", 0, "worker: exit after this many cells (0 = run forever)")
	outage := flag.Duration("outage", 2*time.Minute, "worker: how long the coordinator may stay unreachable before the worker gives up and exits nonzero")
	chaos := flag.String("chaos", "", "worker: fault-injection spec for the coordinator transport, e.g. drop=0.05,dup=0.02,err=0.05,delay=0.1,maxdelay=80ms (testing)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "worker: seed for -chaos fault pattern")
	submit := flag.String("submit", "", "submit mode: path to a JobSpec JSON file (- for stdin)")
	wait := flag.Bool("wait", true, "submit: wait for the job and print its result")
	status := flag.Bool("status", false, "status mode: print the fleet view (the /api/metrics JSON) and exit")
	withMetrics := flag.Bool("metrics", true, "worker: fold per-run telemetry into heartbeat snapshots for the coordinator's /metrics endpoint (never changes findings)")
	quiet := flag.Bool("q", false, "suppress per-cell progress lines")
	flag.Parse()

	switch {
	case *listen != "":
		runCoordinator(*listen, *lease, *journal, *drain)
	case *worker:
		runWorker(*coordinator, *name, *out, *poll, *maxCells, *outage,
			*chaos, *chaosSeed, *withMetrics, *quiet)
	case *submit != "":
		runSubmit(*coordinator, *submit, *wait, *poll)
	case *status:
		runStatus(*coordinator)
	default:
		fatal(fmt.Errorf("pick a mode: -listen (coordinator), -worker, -submit or -status"))
	}
}

func runCoordinator(addr string, lease time.Duration, journalDir string, drainTimeout time.Duration) {
	coord := serve.NewCoordinator(lease)
	build := metrics.DetectBuild()
	coord.SetBuild(build)
	if journalDir != "" {
		j, err := serve.OpenJournal(journalDir)
		if err != nil {
			fatal(err)
		}
		stats, err := coord.AttachJournal(j)
		if err != nil {
			fatal(err)
		}
		if stats.Records > 0 {
			fmt.Fprintf(os.Stderr,
				"pok-serve: recovered %d journal records: %d jobs, %d pending cells, %d live leases%s\n",
				stats.Records, stats.Jobs, stats.PendingCells, stats.LiveLeases,
				map[bool]string{true: " (clean shutdown)", false: ""}[stats.CleanShutdown])
		}
	}
	srv := &http.Server{
		Addr:    addr,
		Handler: coord.Handler(),
		// Slowloris / stuck-peer hardening: every API body is a small
		// JSON blob, so generous-but-finite deadlines cost nothing.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}
	ctx, cancel := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pok-serve: coordinator on http://%s (lease %s, %s)\n",
		addr, lease, build)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		// Graceful drain: stop leasing, keep serving status/heartbeats
		// until in-flight leases complete or TTL-expire, then shut the
		// HTTP server down.
		fmt.Fprintf(os.Stderr, "pok-serve: draining (waiting up to %s for in-flight leases)\n", drainTimeout)
		dctx, dcancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := coord.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "pok-serve: drain incomplete: %v\n", err)
		}
		dcancel()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "pok-serve: shutdown: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "pok-serve: coordinator stopped")
	}
}

func runWorker(coordinator, name, out string, poll time.Duration, maxCells int,
	outage time.Duration, chaosSpec string, chaosSeed uint64, withMetrics, quiet bool) {
	if coordinator == "" {
		fatal(fmt.Errorf("-worker needs -coordinator URL"))
	}
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancel()
	client := serve.NewClient(coordinator)
	if chaosSpec != "" {
		ct, err := serve.ParseChaosSpec(chaosSpec)
		if err != nil {
			fatal(err)
		}
		if ct != nil {
			ct.Seed = chaosSeed
			client.HTTP = &http.Client{Transport: ct, Timeout: 30 * time.Second}
			fmt.Fprintf(os.Stderr, "pok-serve: %s: chaos transport enabled (%s, seed %d)\n",
				name, chaosSpec, chaosSeed)
		}
	}
	w := &serve.Worker{
		Client:       client,
		Name:         name,
		OutDir:       out,
		Poll:         poll,
		MaxCells:     maxCells,
		OutageBudget: outage,
		NoMetrics:    !withMetrics,
	}
	if !quiet {
		w.Log = os.Stderr
	}
	if err := w.Run(ctx); err != nil {
		fatal(err)
	}
}

func runSubmit(coordinator, specPath string, wait bool, poll time.Duration) {
	if coordinator == "" {
		fatal(fmt.Errorf("-submit needs -coordinator URL"))
	}
	var blob []byte
	var err error
	if specPath == "-" {
		blob, err = os.ReadFile("/dev/stdin")
	} else {
		blob, err = os.ReadFile(specPath)
	}
	if err != nil {
		fatal(err)
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		fatal(fmt.Errorf("spec %s: %w", specPath, err))
	}
	client := serve.NewClient(coordinator)
	id, err := client.Submit(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("submitted %s\n", id)
	if !wait {
		return
	}
	res, err := client.Wait(context.Background(), id, poll)
	if err != nil {
		fatal(err)
	}
	outBlob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(outBlob))
	if res.Soak != nil && len(res.Soak.Findings) > 0 {
		os.Exit(1)
	}
}

func runStatus(coordinator string) {
	if coordinator == "" {
		fatal(fmt.Errorf("-status needs -coordinator URL"))
	}
	m, err := serve.NewClient(coordinator).Metrics()
	if err != nil {
		fatal(err)
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-serve:", err)
	os.Exit(1)
}
