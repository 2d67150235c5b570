package auditd_test

// The /metrics exposition is a contract — loadgen, scripts/smoke.sh and the
// cluster tests scrape it — so its shape is pinned here: which series, in
// which order, with which HELP/TYPE lines and labels, the daemon's table and
// the cluster's rows alike.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"indaas/internal/auditd"
	"indaas/internal/cluster"
	"indaas/internal/store"
)

var (
	sampleValue = regexp.MustCompile(`(?m)^([^#\n]\S*) \S+$`)
	buildLabels = regexp.MustCompile(`(go_version|revision)="[^"]*"`)
	finiteLE    = regexp.MustCompile(`le="[^+"][^"]*"`)
)

// maskExposition keeps an exposition's shape and drops what varies run to
// run: every sample value, the build labels' values, and which finite
// histogram buckets happen to be non-empty (collapsed to one line).
func maskExposition(text string) string {
	text = sampleValue.ReplaceAllString(text, "$1 <v>")
	text = buildLabels.ReplaceAllString(text, `$1="<v>"`)
	text = finiteLE.ReplaceAllString(text, `le="<le>"`)
	var out []string
	for _, line := range strings.SplitAfter(text, "\n") {
		if n := len(out); n > 0 && line == out[n-1] {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "")
}

// metricsPage is the /metrics page of a durable daemon behind a one-peer
// cluster node: every row the table can draw is on it.
func metricsPage(t *testing.T) string {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	node := cluster.New(cluster.Config{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}})
	s := auditd.New(auditd.Config{Workers: 1, Store: st, Cluster: node})
	defer s.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// TestMetricsExpositionGolden diffs the masked page against the golden.
// Regenerate it with UPDATE_GOLDEN=1, only for a deliberate change to the
// exposition.
func TestMetricsExpositionGolden(t *testing.T) {
	got := maskExposition(metricsPage(t))
	path := filepath.Join("testdata", "metrics_exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics exposition drifted from %s:\n%s", path, got)
	}
}

// TestMetricNamesFollowConventions holds every row of the table — the
// daemon's, store rows included, and the cluster's — to the naming rule for
// the kind its # TYPE line declares: counters end in _total, histograms (all
// timings) in _seconds, and a gauge never ends in _total. _bytes may end any
// size, so the rule needs no list of exceptions.
func TestMetricNamesFollowConventions(t *testing.T) {
	rows := regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllStringSubmatch(metricsPage(t), -1)
	if len(rows) == 0 {
		t.Fatal("the /metrics page declares no series")
	}
	for _, row := range rows {
		name, ok := row[1], false
		switch auditd.MetricKind(row[2]) {
		case auditd.Counter:
			ok = strings.HasSuffix(name, "_total")
		case auditd.Histogram:
			ok = strings.HasSuffix(name, "_seconds")
		case auditd.Gauge:
			ok = !strings.HasSuffix(name, "_total")
		}
		if !ok || !strings.HasPrefix(name, "auditd_") {
			t.Errorf("%s %s breaks the naming rule for its kind", row[2], name)
		}
	}
}
