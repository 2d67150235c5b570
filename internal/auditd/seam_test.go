package auditd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"indaas/internal/deps"
	"indaas/internal/telemetry"
)

// fakeCluster is the cluster seam with no fleet behind it: a test may set the
// executor wrapper and the replication spy — unset, the executor passes
// through and replication goes nowhere — its peer tier never hits, and it
// counts every loopback source as a peer.
type fakeCluster struct {
	exec      func(local Executor) Executor
	replicate func(records []RecordWire)
}

func (f *fakeCluster) Executor(local Executor) Executor {
	if f.exec == nil {
		return local
	}
	return f.exec(local)
}

func (f *fakeCluster) Tier() ResultTier { return missTier{} }

func (f *fakeCluster) Replicate(records []RecordWire) {
	if f.replicate != nil {
		f.replicate(records)
	}
}

func (f *fakeCluster) Metrics() []Metric { return nil }

func (f *fakeCluster) FromPeer(r *http.Request) bool {
	ap, err := netip.ParseAddrPort(r.RemoteAddr)
	return err == nil && ap.Addr().IsLoopback()
}

// TestPeerHeadersHonouredOnlyFromPeers: the replicated mark skips ingest
// admission and replication, and the forwarded mark pins a submit to local
// compute, so a daemon takes either only from a cluster peer. A standalone
// daemon refuses both from anyone. A clustered one (behind a fake that counts
// loopback as its peers) refuses them from any other source, committing and
// queuing nothing, and honours them from a peer: a replicated ingest is
// admitted past an empty token bucket and is not pushed onward.
func TestPeerHeadersHonouredOnlyFromPeers(t *testing.T) {
	const stranger, peer = "192.0.2.1:1234", "127.0.0.1:1234"
	for _, clustered := range []bool{false, true} {
		name := map[bool]string{false: "standalone", true: "clustered"}[clustered]
		t.Run(name, func(t *testing.T) {
			var pushed [][]RecordWire
			cfg := Config{Workers: 1, IngestRate: 1e-3, IngestBurst: 1}
			if clustered {
				cfg.Cluster = &fakeCluster{replicate: func(records []RecordWire) { pushed = append(pushed, records) }}
			}
			s := New(cfg)
			defer shutdown(t, s)
			post := func(path, header, from string, body any) int {
				t.Helper()
				r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(mustJSON(t, body)))
				r.RemoteAddr = from
				if header != "" {
					r.Header.Set(header, "1")
				}
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				return w.Code
			}
			one := &IngestRequest{Records: WireRecords([]deps.Record{deps.NewHardware("s9", "Disk", "S9-HDD")})}
			batch := &IngestRequest{Records: testRecords()}

			// A client spends the one-record bucket; its next ingest is throttled.
			if code := post("/v1/depdb", "", stranger, one); code != 200 {
				t.Fatalf("a client's first ingest: HTTP %d", code)
			}
			if code := post("/v1/depdb", "", stranger, batch); code != 429 {
				t.Fatalf("a client's ingest past the bucket: HTTP %d, want 429", code)
			}
			if code := post("/v1/depdb", ReplicatedHeader, stranger, batch); code != 403 {
				t.Fatalf("a replicated-marked ingest from %s: HTTP %d, want 403", stranger, code)
			}
			if code := post(auditKind.route, ForwardedHeader, stranger, quickRequest("stranger")); code != 403 {
				t.Fatalf("a forwarded-marked submit from %s: HTTP %d, want 403", stranger, code)
			}
			if st := s.Stats(); st.IngestedRecords != 1 || st.IngestThrottled != 1 || st.Submitted != 0 {
				t.Fatalf("refused marks moved the counters: %d records, %d throttled, %d submitted", st.IngestedRecords, st.IngestThrottled, st.Submitted)
			}

			want, wantFwd := 403, 403
			if clustered {
				want, wantFwd = 200, 202
			}
			if code := post("/v1/depdb", ReplicatedHeader, peer, batch); code != want {
				t.Fatalf("a replicated-marked ingest from %s: HTTP %d, want %d", peer, code, want)
			}
			if code := post(auditKind.route, ForwardedHeader, peer, quickRequest("peer")); code != wantFwd {
				t.Fatalf("a forwarded-marked submit from %s: HTTP %d, want %d", peer, code, wantFwd)
			}
			if !clustered {
				return
			}
			if got := s.Stats().IngestedRecords; got != int64(1+len(batch.Records)) {
				t.Fatalf("the peer's replica was not committed: %d records", got)
			}
			if len(pushed) != 1 || len(pushed[0]) != 1 {
				t.Fatalf("pushed %v; want the client's first ingest only, never a replica", pushed)
			}
		})
	}
}

// TestEveryCounterHasOneRow: the server's counters and the /metrics table
// name each other. Every counters field (but StoreEvictions, which /metrics
// shows as the store's own auditd_store_evictions_total) is drawn by exactly
// one row, and every counter row draws a Stats value.
func TestEveryCounterHasOneRow(t *testing.T) {
	// Give every integer and duration in a Stats a distinct value, then
	// trace each row's sample back to the field it came from.
	var st Stats
	st.StoreEnabled = true
	field := map[float64]string{}
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct && f.Type() != reflect.TypeOf(telemetry.HistogramSnapshot{}):
				fill(f, name+".")
				continue
			case !f.CanSet():
				continue
			case f.Type() == reflect.TypeOf(time.Duration(0)):
				f.SetInt(int64(len(field)+1) * int64(time.Second))
			case f.CanInt():
				f.SetInt(int64(len(field) + 1))
			case f.CanUint():
				f.SetUint(uint64(len(field) + 1))
			default:
				continue
			}
			field[float64(len(field)+1)] = name
		}
	}
	fill(reflect.ValueOf(&st).Elem(), "")

	drawn := map[string]int{}
	for _, m := range st.rows() {
		if m.Kind != Counter && m.Kind != Gauge {
			continue
		}
		v := reflect.ValueOf(m.Value)
		var f float64
		switch {
		case v.CanInt():
			f = float64(v.Int())
		case v.CanUint():
			f = float64(v.Uint())
		case v.CanFloat():
			f = v.Float()
		}
		name, ok := field[f]
		if !ok && m.Kind == Counter {
			t.Errorf("counter row %s draws %v, which is no Stats field", m.Name, m.Value)
		}
		drawn[name]++
	}
	live := reflect.TypeOf(metrics{})
	for i := 0; i < live.NumField(); i++ {
		name := "counters." + live.Field(i).Name
		if live.Field(i).Type != reflect.TypeOf(telemetry.Histogram{}) && name != "counters.StoreEvictions" && drawn[name] != 1 {
			t.Errorf("%s is drawn by %d rows, want 1", name, drawn[name])
		}
	}
}
