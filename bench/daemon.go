package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/store"
	"indaas/internal/telemetry"
)

// daemon is the audit service booted in-process exactly as `indaas serve`
// wires it: store.Open → RestoreDB → auditd.New (default Workers,
// CacheEntries, QueueDepth) → RecoverJobs → the request-logging middleware
// over svc.Handler() on a real loopback listener. Logs go to io.Discard at
// info level, so the middleware does the same formatting work as in
// production without the harness paying for a terminal.
type daemon struct {
	svc       *auditd.Server
	st        *store.Store // nil for a memory-only daemon
	handler   http.Handler
	srv       *http.Server
	base      string
	recoverMS float64 // store.Open + RestoreDB on the directory, 0 when memory-only
}

// bootDaemon starts a daemon; dir == "" means memory-only, otherwise a
// durable daemon (fsync on) over that store directory.
func bootDaemon(dir string) (*daemon, error) {
	d := &daemon{}
	cfg := auditd.Config{}
	if dir != "" {
		t0 := time.Now()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		db, err := auditd.RestoreDB(st)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("restoring persisted DepDB: %w", err)
		}
		d.recoverMS = float64(time.Since(t0)) / float64(time.Millisecond)
		d.st, cfg.Store = st, st
		if db != nil {
			cfg.DB = db
		}
	}
	d.svc = auditd.New(cfg)
	if d.st != nil {
		if _, err := d.svc.RecoverJobs(); err != nil {
			d.stop()
			return nil, fmt.Errorf("recovering journaled jobs: %w", err)
		}
	}
	log, err := telemetry.NewLogger(io.Discard, "info", "text")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.handler = telemetry.LogRequests(log, d.svc.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.srv = &http.Server{Handler: d.handler, ReadHeaderTimeout: 10 * time.Second}
	go d.srv.Serve(ln) // returns ErrServerClosed once stop() shuts it down
	d.base = "http://" + ln.Addr().String()
	return d, nil
}

// stop shuts the listener and the service down and closes the store. It
// waits for in-flight work, so a following bootDaemon on the same directory
// sees everything the stopped one acknowledged.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// The service goes first: its shutdown ends open watch streams, which
	// the listener's graceful Shutdown would otherwise wait out as busy
	// connections.
	d.svc.Shutdown(ctx)
	if d.srv != nil {
		d.srv.Shutdown(ctx)
		d.srv.Close()
	}
	if d.st != nil {
		d.st.Close()
	}
}

// client returns a fresh auditd.Client on the daemon's loopback address
// with its own connection pool, so the harness never shares connections
// with http.DefaultClient users.
func (d *daemon) client() *auditd.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	return auditd.NewClient(d.base, &http.Client{Transport: tr})
}

// serve runs one request through the daemon's handler stack on an in-memory
// recorder: the ladder's R1 rung — logging middleware, routing and the
// handler's JSON codecs with no socket and no client underneath.
func (d *daemon) serve(method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
