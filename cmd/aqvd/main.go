// Command aqvd is the answering-queries-using-views daemon: an HTTP/JSON
// server over the view-serving engine. It loads one or more namespaces —
// each an isolated engine with its own views, base facts and governance
// config — and serves prepared queries, one-shot queries, live
// update batches and stats over a small JSON API.
//
// Usage:
//
//	aqvd -config DIR [-data DIR] [-listen ADDR] [-drain-timeout D]
//	aqvd -views views.dl [-base facts.dl] [-data DIR] [-strategy S] [-live]
//	     [-max-concurrent N] [-max-queue N] [-listen ADDR]
//
// With -config, every subdirectory of DIR holding a views.dl becomes a
// namespace named after the subdirectory (optional base.dl for ground
// facts, optional config.json for engine options). With
// -views, a single "default" namespace is built inline from flags.
//
// With -data, every namespace persists its state (checksummed snapshot +
// write-ahead log) under DIR/<name>: acknowledged batches survive crashes,
// a restart recovers from disk instead of re-materializing the views, and
// a graceful shutdown checkpoints so the next boot replays no log.
//
// Endpoints: POST /v1/prepare, /v1/exec, /v1/query, /v1/batch;
// GET /v1/stats, /healthz — all also under /v1/ns/{name}/... for explicit
// namespace routing. Error responses carry a machine-readable envelope
// ({"error": {"code": ...}}); overload is 429 with Retry-After, deadline
// expiry 408, budget trips 422 with partial fixpoint stats.
//
// On SIGINT/SIGTERM the daemon drains: new requests (health checks
// included) are refused with 503/shutting_down while in-flight requests
// run to completion, bounded by -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cq"
	"repro/internal/server"
	"repro/internal/storage"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aqvd:", err)
		os.Exit(1)
	}
}

// notifyAddr, when non-nil, receives the bound listen address once the
// daemon is accepting connections. Test hook.
var notifyAddr chan<- net.Addr

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aqvd", flag.ContinueOnError)
	fs.SetOutput(out)
	listen := fs.String("listen", "127.0.0.1:8437", "address to listen on")
	configDir := fs.String("config", "", "namespace config directory: <dir>/<name>/views.dl [base.dl] [config.json]")
	viewsPath := fs.String("views", "", "inline mode: file with view definitions (single 'default' namespace)")
	basePath := fs.String("base", "", "inline mode: optional file of ground base facts")
	strategy := fs.String("strategy", "", "inline mode: planning strategy (equivalent-first, bucket, minicon, inverse-rules, auto)")
	live := fs.Bool("live", false, "inline mode: enable live mixed insert/delete batches (/v1/batch)")
	maxConcurrent := fs.Int("max-concurrent", 0, "inline mode: admission-control concurrency cap (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "inline mode: admission queue depth (0 = 4x cap, negative = no queue)")
	dataDir := fs.String("data", "", "durable storage root: each namespace persists (snapshot + WAL) under DIR/<name> and recovers from it at startup")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logf := func(format string, a ...any) { fmt.Fprintf(out, "aqvd: "+format+"\n", a...) }
	reg, err := buildRegistry(*configDir, *viewsPath, *basePath, *dataDir, server.Config{
		Strategy:      *strategy,
		LiveUpdates:   *live,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	srv := server.New(reg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if notifyAddr != nil {
		notifyAddr <- ln.Addr()
	}
	fmt.Fprintf(out, "aqvd: serving namespaces %v on http://%s\n", reg.Names(), ln.Addr())

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain

	// Drain: refuse new requests, let in-flight ones finish, then close.
	fmt.Fprintln(out, "aqvd: draining")
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Durable namespaces checkpoint on close, so the next boot comes
	// entirely from the snapshot with no WAL to replay.
	if err := reg.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Fprintln(out, "aqvd: stopped")
	return nil
}

// buildRegistry resolves the two configuration modes: a config directory of
// namespaces, or a single inline namespace from flags. A non-empty dataDir
// roots durable storage per namespace (DIR/<name>).
func buildRegistry(configDir, viewsPath, basePath, dataDir string, cfg server.Config) (*server.Registry, error) {
	switch {
	case configDir != "" && viewsPath != "":
		return nil, errors.New("-config and -views are mutually exclusive")
	case configDir != "":
		return server.LoadDirWith(configDir, server.DirOptions{DataRoot: dataDir, Logf: cfg.Logf})
	case viewsPath == "":
		return nil, errors.New("one of -config or -views is required")
	}
	if dataDir != "" {
		cfg.DataDir = filepath.Join(dataDir, server.DefaultNamespace)
	}

	viewsSrc, err := os.ReadFile(viewsPath)
	if err != nil {
		return nil, err
	}
	views, err := cq.ParseViews(string(viewsSrc))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", viewsPath, err)
	}
	base := storage.NewDatabase()
	if basePath != "" {
		f, err := os.Open(basePath)
		if err != nil {
			return nil, err
		}
		base, err = storage.ReadDatabase(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", basePath, err)
		}
	}
	ns, err := server.NewNamespace(server.DefaultNamespace, base, views, cfg)
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if err := reg.Add(ns); err != nil {
		return nil, err
	}
	return reg, nil
}
