package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"
)

// NewLogger builds the daemon's slog logger. level is one of
// debug|info|warn|error; format is text|json.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}

// requestInfo is the mutable per-request annotation holder the middleware
// plants in the context so handlers can tag the request with a job id after
// routing has happened.
type requestInfo struct {
	mu    sync.Mutex
	jobID string
}

type requestInfoKey struct{}

// AnnotateJob tags the in-flight HTTP request (if any) with the job id it
// resolved to, so the access log line links to /v1/audits/{id}/trace.
func AnnotateJob(r *http.Request, id string) {
	ri, _ := r.Context().Value(requestInfoKey{}).(*requestInfo)
	if ri == nil || id == "" {
		return
	}
	ri.mu.Lock()
	ri.jobID = id
	ri.mu.Unlock()
}

// statusWriter captures the response status for the access log. It forwards
// Flush so SSE handlers (GET /v1/watch) keep streaming through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if w.status == 0 {
		w.status = http.StatusOK // flushing commits the implicit 200
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// LogRequests wraps an http.Handler with structured access logging: method,
// path, status, duration, and the job id if the handler annotated one.
// Scrape endpoints (/metrics, /healthz) log at debug so an info-level log
// isn't dominated by the monitoring loop.
func LogRequests(log *slog.Logger, next http.Handler) http.Handler {
	if log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &requestInfo{}
		r = r.WithContext(withRequestInfo(r.Context(), ri))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		lvl := slog.LevelInfo
		if r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			lvl = slog.LevelDebug
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
		}
		ri.mu.Lock()
		if ri.jobID != "" {
			attrs = append(attrs, "job", ri.jobID)
		}
		ri.mu.Unlock()
		if r.RemoteAddr != "" {
			attrs = append(attrs, "remote", r.RemoteAddr)
		}
		log.Log(r.Context(), lvl, "request", attrs...)
	})
}

// withRequestInfo plants a request-annotation holder in the context.
func withRequestInfo(ctx context.Context, ri *requestInfo) context.Context {
	return context.WithValue(ctx, requestInfoKey{}, ri)
}
