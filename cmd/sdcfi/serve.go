// Subcommands of sdcfi for the fleet-scale campaign service: "serve"
// runs the HTTP scheduler over an artifact store; "submit", "status",
// "watch", and "cancel" are the matching client verbs. The legacy
// flag-only invocation (no subcommand) is untouched.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// shutdownGrace bounds a graceful shutdown: first the HTTP server's
// drain, then the scheduler's wait for running jobs to park. Whatever
// is still running when it expires stays resumable from the store, as
// after a SIGKILL.
const shutdownGrace = 30 * time.Second

// dispatch routes a subcommand invocation; it returns false when args
// do not start with a known subcommand (legacy flag path).
func dispatch(args []string) (code int, handled bool) {
	if len(args) == 0 {
		return 0, false
	}
	switch args[0] {
	case "serve":
		return cmdServe(args[1:]), true
	case "submit":
		return cmdSubmit(args[1:]), true
	case "status":
		return cmdStatus(args[1:]), true
	case "watch":
		return cmdWatch(args[1:]), true
	case "cancel":
		return cmdCancel(args[1:]), true
	}
	return 0, false
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sdcfi:", err)
	return 1
}

func cmdServe(args []string) int {
	fs := flag.NewFlagSet("sdcfi serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:7077", "listen address")
		store        = fs.String("store", "", "artifact store directory (required; jobs resume from it)")
		workers      = fs.Int("workers", 0, "shard workers across all jobs (0 = GOMAXPROCS)")
		maxActive    = fs.Int("max-active", 0, "concurrently running jobs (0 = 2)")
		maxQueue     = fs.Int("max-queue", 0, "admission queue bound (0 = 16)")
		tenantMax    = fs.Int("tenant-max", 0, "per-tenant queued+running bound (0 = max-queue)")
		preemptAfter = fs.Int("preempt-after", 0, "crash-test hook: park every job after this many committed shards (0 = off)")
	)
	fs.Parse(args)
	if *store == "" {
		return fail(fmt.Errorf("serve: -store is required"))
	}
	srv, err := server.New(server.Options{
		StoreDir:     *store,
		Workers:      *workers,
		MaxActive:    *maxActive,
		MaxQueue:     *maxQueue,
		TenantMax:    *tenantMax,
		PreemptAfter: *preemptAfter,
	})
	if err != nil {
		return fail(err)
	}
	// SIGINT/SIGTERM cancel ctx. Request contexts derive from it, so
	// open SSE streams end and the HTTP drain is not held up by them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{
		Addr:        *addr,
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Bound how long a client may dribble headers or a request body
		// at the multi-tenant service. WriteTimeout stays off: the SSE
		// events endpoint streams for the life of a job.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	fmt.Printf("sdcfi serve: listening on %s, store %s\n", *addr, *store)
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		return fail(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("sdcfi serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "sdcfi serve: http drain:", err)
	}
	if err := srv.Close(sctx); err != nil {
		return fail(fmt.Errorf("serve: jobs still running at shutdown (resumable from the store): %w", err))
	}
	return 0
}

func cmdSubmit(args []string) int {
	fs := flag.NewFlagSet("sdcfi submit", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:7077", "server base URL")
		bench     = fs.String("bench", "fft", "benchmark name")
		n         = fs.Int("n", 1000, "number of fault-injection trials")
		input     = fs.String("input", "ref", "input selection: ref or random")
		inputSeed = fs.Int64("input-seed", 7, "seed for -input random")
		seed      = fs.Int64("seed", 1, "fault-site sampling seed")
		model     = fs.String("fault-model", "", "fault model to inject (empty = bitflip)")
		tenant    = fs.String("tenant", "", "tenant for quota accounting")
		wait      = fs.Bool("wait", false, "watch progress until terminal and fetch the result")
		out       = fs.String("out", "", "write the result document to this file (with -wait; default stdout)")
	)
	fs.Parse(args)
	c := server.NewClient(*addr)
	resp, err := c.Submit(server.JobSpec{
		Bench: *bench, Input: *input, InputSeed: *inputSeed,
		Trials: *n, Seed: *seed, Model: *model, Tenant: *tenant,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "job %s %s (deduped=%v)\n", resp.ID, resp.State, resp.Deduped)
	if !*wait {
		fmt.Println(resp.ID)
		return 0
	}
	st, err := c.Watch(resp.ID, os.Stderr)
	if err != nil {
		return fail(err)
	}
	if st.State != server.StateDone {
		return fail(fmt.Errorf("job %s ended %s: %s", resp.ID, st.State, st.Error))
	}
	data, err := c.Result(resp.ID)
	if err != nil {
		return fail(err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	return 0
}

// idFlags parses the shared -addr/-id pair of the status-family verbs.
func idFlags(name string, args []string) (*server.Client, string, int) {
	fs := flag.NewFlagSet("sdcfi "+name, flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7077", "server base URL")
	id := fs.String("id", "", "job ID (required)")
	fs.Parse(args)
	if *id == "" {
		return nil, "", fail(fmt.Errorf("%s: -id is required", name))
	}
	return server.NewClient(*addr), *id, -1
}

func cmdStatus(args []string) int {
	c, id, code := idFlags("status", args)
	if code >= 0 {
		return code
	}
	st, err := c.Status(id)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("job %s\n  state  %s\n  bench  %s\n  trials %d\n  seed   %d\n  model  %s\n  shards %d/%d\n",
		st.ID, st.State, st.Bench, st.Trials, st.Seed, st.Model, st.Shards.Done, st.Shards.Total)
	if st.Error != "" {
		fmt.Printf("  error  %s\n", st.Error)
	}
	return 0
}

func cmdWatch(args []string) int {
	c, id, code := idFlags("watch", args)
	if code >= 0 {
		return code
	}
	st, err := c.Watch(id, os.Stdout)
	if err != nil {
		return fail(err)
	}
	if st.State != server.StateDone {
		return 1
	}
	return 0
}

func cmdCancel(args []string) int {
	c, id, code := idFlags("cancel", args)
	if code >= 0 {
		return code
	}
	st, err := c.Cancel(id)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("job %s %s\n", st.ID, st.State)
	return 0
}
