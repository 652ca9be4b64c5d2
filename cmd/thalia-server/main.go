// Command thalia-server serves the THALIA web site (Figure 4 of the
// paper): browse the University course catalogs in their original
// representation, view the extracted XML documents and corresponding
// schemas, download the benchmark bundles, upload scores, and view the
// Honor Roll — plus the observability surface: /metrics (JSON and
// Prometheus text), /healthz, /debug/traces, and net/http/pprof under
// /debug/pprof/.
//
// With -journal-dir, benchmark runs started at POST /runs are
// flight-recorded to disk and reloaded on restart, so /runs history
// survives the process; /runs/{id}/events streams any run's journal live
// over SSE.
//
// The server drains gracefully: SIGINT/SIGTERM stops accepting new
// connections and waits up to -drain for in-flight requests.
//
// Usage:
//
//	thalia-server [-addr :8080] [-drain 10s] [-quiet] [-journal-dir DIR]
//	thalia-server -version
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thalia/internal/buildinfo"
	"thalia/internal/website"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "thalia-server:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is cancelled (a signal in
// production, the test in the smoke test), then drains. It is the whole
// server minus process concerns, so tests can drive it end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("thalia-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	quiet := fs.Bool("quiet", false, "suppress the access log")
	journalDir := fs.String("journal-dir", "", "persist benchmark-run journals to this directory (and reload them on start)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; asking for help is not a failure
		}
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("thalia-server"))
		return nil
	}

	site := website.New()
	if !*quiet {
		site.SetSlogger(slog.New(slog.NewTextHandler(stderr, nil)))
	}
	if *journalDir != "" {
		if err := site.SetJournalDir(*journalDir); err != nil {
			return err
		}
	}
	srv := &http.Server{
		Handler:           withPprof(site.Handler()),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Listen before reporting ready so -addr :0 callers can read the
	// actual port from stdout.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "THALIA web site listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener died on its own
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "shutting down (drain %v)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in
// front of the site handler. pprof's default registrations go to
// http.DefaultServeMux; routing explicitly here keeps the server
// self-contained (and keeps DefaultServeMux out of production).
func withPprof(site http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", site)
	return mux
}
