package depdb_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"indaas/internal/agentsim"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
	"indaas/internal/sia"
)

func put(t *testing.T, db *depdb.DB, records ...deps.Record) {
	t.Helper()
	if err := db.Put(records...); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintNamesCurrentState is the reproducer the multiset
// fingerprint failed: a database is addressed by what it says now, so two
// orders of the same two observations — which leave different NICs in the
// slot — must not share an address, a flap that returns must, and an exact
// re-observation must not be an event at all.
func TestFingerprintNamesCurrentState(t *testing.T) {
	nicA := deps.NewHardware("s1", "NIC", "s1-modelA")
	nicB := deps.NewHardware("s1", "NIC", "s1-modelB")
	ab, ba, a := depdb.New(), depdb.New(), depdb.New()
	put(t, ab, nicA, nicB)
	put(t, ba, nicB, nicA)
	put(t, a, nicA)
	if got := ab.HardwareOf("s1")[0].Dep; got != "s1-modelB" {
		t.Fatalf("Put(A,B) leaves %s in the slot", got)
	}
	if ab.Fingerprint() == ba.Fingerprint() {
		t.Fatal("Put(A,B) and Put(B,A) hold different NICs under one fingerprint")
	}
	if ba.Fingerprint() != a.Fingerprint() {
		t.Fatal("Put(B,A) and Put(A) hold the same NIC under different fingerprints")
	}
	put(t, ab, nicA) // A -> B -> A
	if ab.Fingerprint() != a.Fingerprint() || ab.Len() != 1 {
		t.Fatalf("A→B→A: Len %d, same fingerprint as A = %v", ab.Len(), ab.Fingerprint() == a.Fingerprint())
	}

	// Re-observing what is on file — the live NIC, a route — moves nothing.
	route := deps.NewNetwork("s1", "Internet", "tor1", "core1")
	put(t, a, route)
	snap := a.Snapshot()
	batch, err := depdb.NewBatch(nicA, route)
	if err != nil {
		t.Fatal(err)
	}
	if a.FingerprintWith(batch) != snap.Fingerprint() {
		t.Fatal("previewing a re-observation changes the fingerprint")
	}
	if changed := a.PutBatch(batch); changed != nil {
		t.Fatalf("re-observation reported changes %v", changed)
	}
	if a.Snapshot() != snap || a.Len() != 2 {
		t.Fatalf("re-observation re-registered the snapshot (%v) or grew the database (Len %d)", a.Snapshot() != snap, a.Len())
	}
	// A second route between the same endpoints is a different route.
	if changed := a.PutBatch(mustBatch(t, route, deps.NewNetwork("s1", "Internet", "tor1", "core2"))); !reflect.DeepEqual(changed, []int{1}) {
		t.Fatalf("changed = %v, want only the redundant route", changed)
	}
	if a.Snapshot() == snap || a.Len() != 3 || len(a.Networks("s1")) != 2 {
		t.Fatalf("redundant route: Len %d, Networks %v", a.Len(), a.Networks("s1"))
	}
}

func mustBatch(t *testing.T, records ...deps.Record) *depdb.Batch {
	t.Helper()
	b, err := depdb.NewBatch(records...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// model is the recompute-from-scratch reference: the reduced state as a map,
// rebuilt by the three rules in the package comment and nothing else.
type model struct {
	live  map[string]deps.Record // identity (hw, sw) or whole route -> live record
	order []string               // keys in first-observation order
}

func newModel() *model { return &model{live: make(map[string]deps.Record)} }

func modelKey(r deps.Record) string {
	switch r.Kind {
	case deps.KindHardware:
		return "hw|" + r.Hardware.HW + "|" + r.Hardware.Type
	case deps.KindSoftware:
		return "sw|" + r.Software.Pgm + "|" + r.Software.HW
	default:
		return "net|" + r.Network.Src + "|" + r.Network.Dst + "|" + strings.Join(r.Network.Route, ">")
	}
}

// put applies one record and reports whether the state changed.
func (m *model) put(r deps.Record) bool {
	k := modelKey(r)
	old, ok := m.live[k]
	if ok && reflect.DeepEqual(old, r) {
		return false
	}
	if !ok {
		m.order = append(m.order, k)
	}
	m.live[k] = r
	return true
}

func (m *model) records() []deps.Record {
	out := make([]deps.Record, len(m.order))
	for i, k := range m.order {
		out[i] = m.live[k]
	}
	return out
}

// state is an order-free rendering of the reduced state.
func (m *model) state() string {
	lines := make([]string, 0, len(m.live))
	for _, r := range m.live {
		lines = append(lines, fmt.Sprintf("%+v%+v%+v", r.Network, r.Hardware, r.Software))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func (m *model) of(subject string, kind deps.Kind) []deps.Record {
	var out []deps.Record
	for _, k := range m.order {
		if r := m.live[k]; r.Kind == kind && r.Subject() == subject {
			out = append(out, r)
		}
	}
	return out
}

var modelServers = []string{"s1", "s2", "s3", "s4"}

// randomRecord draws from a universe small enough that identities collide
// constantly: 4 servers × 2 slots × 3 models, 2 programs × 3 closures,
// 3 routes per server. Its names use what the Table 1 XML form could not
// carry — a list separator, spaces, a newline, markup, non-ASCII text, a
// control character — and nothing Validate refuses.
func randomRecord(rng *rand.Rand) deps.Record {
	s := modelServers[rng.Intn(len(modelServers))]
	switch rng.Intn(3) {
	case 0:
		return deps.NewNetwork(s, "Internet", "tor-"+s, []string{"core0", "core,1", " core 2 "}[rng.Intn(3)])
	case 1:
		slot := []string{"NIC", "Disk"}[rng.Intn(2)]
		return deps.NewHardware(s, slot, s+"-"+slot+[]string{"-m0", "-m\n1", `-<m&"2>`}[rng.Intn(3)])
	default:
		pgm := []string{"nginx", "etcd"}[rng.Intn(2)]
		return deps.NewSoftware(pgm, s, "libc6", []string{"libssl0", "libssl é1", "libssl\x012"}[rng.Intn(3)])
	}
}

// modelKinds are the three record kinds, in Query order.
var modelKinds = []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware}

// checkScopes holds snap's scope digests to the model: every (server, kind)
// digest, and every server's all-kinds one, equals that of a fresh database
// given the live records in a random order; and a digest moved from before
// exactly when that pair's live records did (prev are the live records
// before) — a batch about one subject leaves every other subject's digests
// byte-equal.
func checkScopes(t *testing.T, at string, rng *rand.Rand, snap, before *depdb.Snapshot, live, prev []deps.Record) {
	t.Helper()
	shuffled := append([]deps.Record(nil), live...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	fresh := depdb.New()
	put(t, fresh, shuffled...)
	ref := fresh.Snapshot()
	pairState := func(recs []deps.Record, subject string, kind deps.Kind) string {
		var lines []string
		for _, r := range recs {
			if r.Kind == kind && r.Subject() == subject {
				lines = append(lines, fmt.Sprintf("%+v%+v%+v", r.Network, r.Hardware, r.Software))
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, s := range modelServers {
		subj := []string{s}
		if got, want := snap.Scope(subj, nil), ref.Scope(subj, nil); got != want {
			t.Fatalf("%s: Scope(%s) = %s, a fresh database with the same records says %s", at, s, got, want)
		}
		for _, k := range modelKinds {
			kinds := []deps.Kind{k}
			if got, want := snap.Scope(subj, kinds), ref.Scope(subj, kinds); got != want {
				t.Fatalf("%s: Scope(%s, %v) = %s, a fresh database with the same records says %s", at, s, k, got, want)
			}
			changed := pairState(prev, s, k) != pairState(live, s, k)
			if was, now := before.Scope(subj, kinds), snap.Scope(subj, kinds); (was != now) != changed {
				t.Fatalf("%s: Scope(%s, %v) moved = %v, its live records changed = %v", at, s, k, was != now, changed)
			}
		}
	}
}

func reportJSON(t *testing.T, db depdb.Reader) string {
	t.Helper()
	specs := []sia.GraphSpec{
		{Deployment: "front", Servers: modelServers[:2]},
		{Deployment: "back", Servers: modelServers[2:]},
	}
	rep, err := sia.AuditDeployments(db, "model", specs, sia.Options{Algorithm: sia.MinimalRG})
	if err != nil {
		t.Fatal(err)
	}
	audits := append([]report.DeploymentAudit(nil), rep.Audits...)
	for i := range audits {
		audits[i].Elapsed = 0
	}
	blob, err := json.Marshal(report.Report{Title: rep.Title, Audits: audits})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestModelRandomized drives random, heavily colliding record streams into
// three databases that differ only in when they compact — at every
// supersession, at the shipped threshold, never — and checks each step
// against the model: which records changed state, the previewed and the
// committed fingerprint, Len, Records, every query, and the diffs from the
// previous and from a much older snapshot, which the three must report
// identically although one crosses a compaction at every step and one never
// does. Then a fourth database is given the same reduced state by another
// route — shuffled, duplicated, with superseded junk — and must land on the
// same fingerprint and the byte-identical report. Across every step of every
// trial, one fingerprint names one state and one state has one fingerprint.
func TestModelRandomized(t *testing.T) {
	stateOf := make(map[string]string) // fingerprint -> state
	fpOf := make(map[string]string)    // state -> fingerprint
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		every, shipped, never := depdb.New(), depdb.New(), depdb.New()
		every.CompactAlways()
		never.CompactNever()
		dbs := []*depdb.DB{every, shipped, never}
		m := newModel()
		var stream []deps.Record
		var snaps [][]*depdb.Snapshot // per step, one snapshot per database
		var states []*model           // per step, for the reference diff

		for step := 0; step < 60; step++ {
			batch := make([]deps.Record, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = randomRecord(rng)
				if i > 0 && rng.Intn(4) == 0 {
					batch[i] = batch[rng.Intn(i)] // duplicates inside one batch
				}
			}
			if step == 0 { // every audited server has at least a NIC and a route
				for _, s := range modelServers {
					batch = append(batch, deps.NewHardware(s, "NIC", s+"-NIC-m0"), deps.NewNetwork(s, "Internet", "tor-"+s, "core0"))
				}
			}
			stream = append(stream, batch...)
			prev := m.records()
			var wantChanged []int
			for i, r := range batch {
				if m.put(r) {
					wantChanged = append(wantChanged, i)
				}
			}
			want := m.records()
			var fp string
			for d, db := range dbs {
				b := mustBatch(t, batch...)
				preview := db.FingerprintWith(b)
				before := db.Snapshot()
				changed := db.PutBatch(b)
				if !reflect.DeepEqual(changed, wantChanged) {
					t.Fatalf("trial %d step %d db %d: changed %v, model %v", trial, step, d, changed, wantChanged)
				}
				snap := db.Snapshot()
				if (snap == before) != (wantChanged == nil) {
					t.Fatalf("trial %d step %d db %d: snapshot re-registered = %v with changes %v", trial, step, d, snap != before, wantChanged)
				}
				if snap.Fingerprint() != preview {
					t.Fatalf("trial %d step %d db %d: FingerprintWith %s, PutBatch landed on %s", trial, step, d, preview, snap.Fingerprint())
				}
				if d == 0 {
					fp = snap.Fingerprint()
				} else if snap.Fingerprint() != fp {
					t.Fatalf("trial %d step %d: compaction timing moved the fingerprint", trial, step)
				}
				if db.Len() != len(want) || snap.Len() != len(want) {
					t.Fatalf("trial %d step %d db %d: Len %d / %d, model %d", trial, step, d, db.Len(), snap.Len(), len(want))
				}
				if got := snap.Records(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d step %d db %d: Records\n got %v\nwant %v", trial, step, d, got, want)
				}
				// The durable form: the live state through its segment.
				restored := depdb.New()
				if err := restored.PutSegment(db.Segment()); err != nil {
					t.Fatalf("trial %d step %d db %d: segment refused: %v", trial, step, d, err)
				}
				if restored.Fingerprint() != snap.Fingerprint() || !reflect.DeepEqual(restored.Records(), want) {
					t.Fatalf("trial %d step %d db %d: the segment restores to %s\n got %v\nwant %v", trial, step, d, restored.Fingerprint(), restored.Records(), want)
				}
				for _, s := range modelServers {
					for _, k := range []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware} {
						if got, want := snap.Query(s, k), m.of(s, k); !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d step %d db %d: Query(%s, %v)\n got %v\nwant %v", trial, step, d, s, k, got, want)
						}
					}
				}
				checkScopes(t, fmt.Sprintf("trial %d step %d db %d", trial, step, d), rng, snap, before, want, prev)
			}
			if every.LogLen() != every.Len() {
				t.Fatalf("trial %d step %d: compacting at every step leaves %d log entries for %d live records", trial, step, every.LogLen(), every.Len())
			}
			state := m.state()
			if prior, ok := stateOf[fp]; ok && prior != state {
				t.Fatalf("trial %d step %d: fingerprint %s names two states:\n%s\n--\n%s", trial, step, fp, prior, state)
			}
			if prior, ok := fpOf[state]; ok && prior != fp {
				t.Fatalf("trial %d step %d: one state, fingerprints %s and %s", trial, step, prior, fp)
			}
			stateOf[fp], fpOf[state] = state, fp

			row := make([]*depdb.Snapshot, len(dbs))
			for d, db := range dbs {
				row[d] = db.Snapshot()
			}
			snaps = append(snaps, row)
			frozen := newModel()
			for _, r := range want {
				frozen.put(r)
			}
			states = append(states, frozen)
			// Diffs from the previous step and from up to 20 steps back, both
			// directions, against a diff of the two model states.
			for _, back := range []int{1, 1 + rng.Intn(20)} {
				from := step - back
				if from < 0 {
					continue
				}
				ref := depdb.New()
				put(t, ref, states[from].records()...)
				cur := depdb.New()
				put(t, cur, want...)
				wantFwd, wantRev := ref.Snapshot().Diff(cur.Snapshot()), cur.Snapshot().Diff(ref.Snapshot())
				for d := range dbs {
					if got := snaps[from][d].Diff(row[d]); !reflect.DeepEqual(got, wantFwd) {
						t.Fatalf("trial %d step %d db %d: diff from step %d\n got %+v\nwant %+v", trial, step, d, from, got, wantFwd)
					}
					if got := row[d].Diff(snaps[from][d]); !reflect.DeepEqual(got, wantRev) {
						t.Fatalf("trial %d step %d db %d: reverse diff to step %d\n got %+v\nwant %+v", trial, step, d, from, got, wantRev)
					}
				}
				if wantFwd.Empty() != (states[from].state() == state) {
					t.Fatalf("trial %d step %d: diff from step %d empty = %v, states equal = %v", trial, step, from, wantFwd.Empty(), !wantFwd.Empty())
				}
			}
			// Old snapshots keep answering from the log they pinned.
			if from := rng.Intn(step + 1); !reflect.DeepEqual(snaps[from][0].Records(), states[from].records()) {
				t.Fatalf("trial %d step %d: the snapshot of step %d no longer reads as it did", trial, step, from)
			}
		}

		// Another route to the same state: the stream shuffled and partly
		// repeated — any hardware or software record in it may be superseded
		// junk now — then every live record once more, in a random order.
		other := depdb.New()
		detour := append([]deps.Record(nil), stream...)
		for i := 0; i < len(stream)/2; i++ {
			detour = append(detour, stream[rng.Intn(len(stream))])
		}
		rng.Shuffle(len(detour), func(i, j int) { detour[i], detour[j] = detour[j], detour[i] })
		final := m.records()
		rng.Shuffle(len(final), func(i, j int) { final[i], final[j] = final[j], final[i] })
		detour = append(detour, final...)
		for len(detour) > 0 {
			n := 1 + rng.Intn(len(detour))
			put(t, other, detour[:n]...)
			detour = detour[n:]
		}
		if other.Fingerprint() != shipped.Fingerprint() || other.Len() != shipped.Len() {
			t.Fatalf("trial %d: the same state reached another way: Len %d vs %d, fingerprints %s vs %s",
				trial, other.Len(), shipped.Len(), other.Fingerprint(), shipped.Fingerprint())
		}
		if d := other.Snapshot().Diff(shipped.Snapshot()); !d.Empty() {
			t.Fatalf("trial %d: equal states diff %+v", trial, d)
		}
		want := reportJSON(t, shipped.Snapshot())
		for d, db := range []depdb.Reader{every, never.Snapshot(), other} {
			if got := reportJSON(t, db); got != want {
				t.Fatalf("trial %d reader %d: same fingerprint, different report\n got %s\nwant %s", trial, d, got, want)
			}
		}
		// One more change and the address moves.
		put(t, other, deps.NewHardware("s1", "NIC", "s1-NIC-unseen"))
		if other.Fingerprint() == shipped.Fingerprint() {
			t.Fatalf("trial %d: a replaced NIC kept the fingerprint", trial)
		}
	}
}

// TestSoakReobservedFleet re-observes a fixed k=8 fleet a million times over
// (a hundred thousand with -short): NIC flaps, rolling upgrades and flow
// re-observations, the churn the streaming pipeline carries. The database
// must follow the fleet's current state, not its history: from 10⁴
// re-observations on, Len, live heap and the cost of a HardwareOf sweep stay
// where they were.
func TestSoakReobservedFleet(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	fleet, err := agentsim.New(agentsim.Config{K: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := fleet.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	db := depdb.New()
	for _, b := range batches {
		put(t, db, b...)
	}
	churn, err := fleet.ChurnStream(21)
	if err != nil {
		t.Fatal(err)
	}
	servers := fleet.Servers()

	type reading struct {
		at, length, logLen int
		heap               uint64
		sweep              time.Duration
	}
	read := func(at int) reading {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for _, s := range servers {
				db.HardwareOf(s)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		r := reading{at: at, length: db.Len(), logLen: db.LogLen(), heap: ms.HeapAlloc, sweep: best}
		t.Logf("after %8d re-observations: Len %d, log %d, heap %.1f MB, HardwareOf sweep %v (%d ns/op)",
			r.at, r.length, r.logLen, float64(r.heap)/(1<<20), r.sweep, r.sweep.Nanoseconds()/int64(len(servers)))
		return r
	}

	var base reading
	next := 10_000
	for seen := 0; seen < total; {
		b, err := churn.Next()
		if err != nil {
			t.Fatal(err)
		}
		put(t, db, b.Records...)
		seen += len(b.Records)
		if seen < next {
			continue
		}
		r := read(seen)
		if next == 10_000 {
			base = r
		} else {
			if r.length != base.length {
				t.Fatalf("Len moved from %d to %d: the fleet did not grow", base.length, r.length)
			}
			if r.logLen > 2*r.length+1024 {
				t.Fatalf("log holds %d entries for %d live records", r.logLen, r.length)
			}
			if r.heap > base.heap+base.heap/2+(1<<20) {
				t.Fatalf("live heap grew from %.1f MB at 10⁴ to %.1f MB at %d", float64(base.heap)/(1<<20), float64(r.heap)/(1<<20), seen)
			}
			if r.sweep > 4*base.sweep+time.Millisecond {
				t.Fatalf("HardwareOf sweep slowed from %v at 10⁴ to %v at %d", base.sweep, r.sweep, seen)
			}
		}
		next *= 10
	}
	if base.at == 0 {
		t.Fatal("no reading was taken")
	}
}
