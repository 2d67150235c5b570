package auditd

// Client peer-failover tests: a client given the cluster's peer list
// rotates to the next node when the current one refuses connections, and a
// client-wide header (how the cluster router marks forwarded traffic) rides
// on every request.

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// deadEndpoint grabs a loopback port and closes it, so dials are refused —
// the client's view of a killed node.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()
	return addr
}

// TestClientFailsOverToPeer: with a peer list, a refused connection rotates
// the retry onto the next node instead of hammering the dead one — the
// submit lands on the live peer, and follow-up calls start there directly.
func TestClientFailsOverToPeer(t *testing.T) {
	s := New(Config{Workers: 1})
	defer gracefulShutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	c := NewClient(deadEndpoint(t), nil)
	c.SetPeers(ts.URL)
	c.Retry = fastRetry()
	st, err := c.Submit(ctx, quickRequest("failover"))
	if err != nil {
		t.Fatalf("submit with dead primary: %v", err)
	}
	if done, err := c.WaitDone(ctx, st.ID); err != nil || done.State != StateDone {
		t.Fatalf("wait = %+v, %v", done, err)
	}
	if got := c.currentBase(); got != ts.URL {
		t.Fatalf("client still targets %s, want rotated to %s", got, ts.URL)
	}
}

// TestClientWithoutPeersKeepsRetryingOneBase: rotation is a no-op on a
// single-endpoint client — every attempt goes to the one base, preserving
// the pre-cluster retry behavior.
func TestClientWithoutPeersKeepsRetryingOneBase(t *testing.T) {
	ft := &flakyTransport{n: 2, base: http.DefaultTransport}
	s := New(Config{Workers: 1})
	defer gracefulShutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(ts.URL, &http.Client{Transport: ft})
	c.Retry = fastRetry()
	if _, err := c.Submit(context.Background(), quickRequest("single")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := c.currentBase(); got != ts.URL {
		t.Fatalf("single-base client rotated to %s", got)
	}
}

// TestClientSetHeaderAppliesToEveryRequest: a header set once rides on every
// request the client sends — submits and polls alike — which is what lets
// the cluster router mark all its forwarded traffic. The daemon sits behind a
// fake cluster: a standalone one refuses the forwarded mark.
func TestClientSetHeaderAppliesToEveryRequest(t *testing.T) {
	s := New(Config{Workers: 1, Cluster: &fakeCluster{}})
	defer gracefulShutdown(t, s)
	inner := s.Handler()
	var total, tagged atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		total.Add(1)
		if r.Header.Get(ForwardedHeader) == "1" {
			tagged.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := context.Background()

	c := NewClient(ts.URL, nil)
	c.SetHeader(ForwardedHeader, "1")
	st, err := c.Submit(ctx, quickRequest("tagged"))
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.WaitDone(ctx, st.ID); err != nil || done.State != StateDone {
		t.Fatalf("wait = %+v, %v", done, err)
	}
	if total.Load() < 2 || tagged.Load() != total.Load() {
		t.Fatalf("%d/%d requests carried the header, want all", tagged.Load(), total.Load())
	}
}
