// Command sparcsd is arbitration-as-a-service: a long-running HTTP/JSON
// server over the sparcs compile-once/experiment-many API
// (internal/service). Repeat designs hit a content-addressed System
// cache and skip compilation; concurrent experiments are admitted
// through a weighted-round-robin arbiter over per-class bounded queues.
//
// Modes:
//
//	sparcsd                         serve (default) on -addr
//	sparcsd -mode once ...          run one experiment offline, print the
//	                                canonical body a server would serve
//	sparcsd -mode loadtest -url U   drive a running server, report
//	                                throughput/latency/cache/rejections
//
// Serving handles SIGINT/SIGTERM gracefully: new experiments get 503
// while queued and in-flight ones finish (bounded by -drain-timeout),
// then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparcs/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparcsd: ")

	mode := flag.String("mode", "serve", "serve, once, or loadtest")
	addr := flag.String("addr", ":8077", "serve: listen address")
	workers := flag.Int("workers", 0, "serve: max concurrent experiments (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "serve: per-class admission queue bound (0 = 64)")
	classes := flag.String("classes", "", "serve: admission classes as name=weight,... (default interactive=4,batch=1)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "serve: max wait for in-flight experiments on shutdown")
	cacheCLBs := flag.Int("cache-clbs", 0, "serve: compiled-System cache budget in CLB footprint, LRU-evicted (0 = unbounded)")

	design := flag.String("design", "fft", "once/loadtest: design name")
	tiles := flag.Int("tiles", 2, "once/loadtest: fft tile count")
	policy := flag.String("policy", "", "once: arbitration policy spec (empty = round-robin)")
	contention := flag.String("contention", "", "once: background contention spec")
	seed := flag.Uint64("seed", 0, "once: contention seed")
	maxCycles := flag.Int("max-cycles", 0, "once: per-stage cycle bound")

	url := flag.String("url", "http://127.0.0.1:8077", "loadtest: server base URL")
	n := flag.Int("n", 2000, "loadtest: total requests")
	c := flag.Int("c", 128, "loadtest: concurrent clients")
	class := flag.String("class", "", "once/loadtest: admission class")
	flag.Parse()

	var err error
	switch *mode {
	case "serve":
		err = runServe(*addr, *workers, *queueDepth, *classes, *drainTimeout, *cacheCLBs)
	case "once":
		err = runOnce(service.ExperimentRequest{
			Design: *design,
			Tiles:  *tiles,
			Class:  *class,
			Run: service.RunSpec{
				Policy:     *policy,
				Contention: *contention,
				Seed:       *seed,
				MaxCycles:  *maxCycles,
			},
		})
	case "loadtest":
		err = runLoadtest(service.LoadTestOptions{
			URL:         *url,
			Requests:    *n,
			Concurrency: *c,
			Design:      *design,
			Tiles:       *tiles,
			Class:       *class,
		})
	default:
		err = fmt.Errorf("unknown mode %q (serve, once, loadtest)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseClasses parses "interactive=4,batch=1" into admission classes;
// empty input returns nil for the service defaults.
func parseClasses(s string) ([]service.Class, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []service.Class
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		name, weight, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("class entry %q is not name=weight", entry)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("class %s: weight %q must be a positive integer", name, weight)
		}
		out = append(out, service.Class{Name: name, Weight: w})
	}
	return out, nil
}

// Connection timeouts for the serve mode. A client gets readHeaderTimeout
// to send its request headers and an idle keep-alive connection is closed
// after idleTimeout, so slow or abandoned clients cannot pin connections.
// Bodies and responses stay untimed: an experiment may legitimately run
// for minutes, and the service caps body size instead.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func runServe(addr string, workers, queueDepth int, classSpec string, drainTimeout time.Duration, cacheCLBs int) error {
	cls, err := parseClasses(classSpec)
	if err != nil {
		return err
	}
	s, err := service.New(service.Config{Workers: workers, QueueDepth: queueDepth, Classes: cls, CacheBudgetCLBs: cacheCLBs})
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("serving on %s", addr)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills hard

	log.Printf("draining (timeout %v)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("shut down cleanly")
	return nil
}

func runOnce(req service.ExperimentRequest) error {
	body, hash, err := service.OfflineResult(req)
	if err != nil {
		return err
	}
	log.Printf("design hash %s", hash) // stderr: stdout stays diffable
	_, err = os.Stdout.Write(body)
	return err
}

func runLoadtest(opt service.LoadTestOptions) error {
	rep, err := service.LoadTest(opt)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}
