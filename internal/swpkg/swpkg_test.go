package swpkg

import (
	"math"
	"sort"
	"strings"
	"testing"

	"indaas/internal/deps"
)

func TestAddAndGet(t *testing.T) {
	u := NewUniverse()
	if err := u.Add(Package{Name: "a", Version: "1", Depends: []string{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := u.Add(Package{Name: "a", Version: "2"}); err == nil {
		t.Error("duplicate package accepted")
	}
	if err := u.Add(Package{Name: "", Version: "1"}); err == nil {
		t.Error("empty name accepted")
	}
	if err := u.Add(Package{Name: "x", Version: ""}); err == nil {
		t.Error("empty version accepted")
	}
	p, ok := u.Get("a")
	if !ok || p.ID() != "a=1" {
		t.Errorf("Get(a) = %+v, %v", p, ok)
	}
	if u.Len() != 1 {
		t.Errorf("Len = %d", u.Len())
	}
}

// TestUpgrade: an upgrade bumps the installed version in place (Add keeps
// rejecting duplicates) and the new closure flows into Resolve/Record.
func TestUpgrade(t *testing.T) {
	u := NewUniverse()
	for _, p := range []Package{
		{Name: "app", Version: "1.0", Depends: []string{"libc"}},
		{Name: "libc", Version: "2.31"},
		{Name: "libssl", Version: "3.0"},
	} {
		if err := u.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Upgrade("ghost", "1.1", nil); err == nil {
		t.Error("upgrade of an unknown package accepted")
	}
	if err := u.Upgrade("app", "", nil); err == nil {
		t.Error("upgrade without a version accepted")
	}
	// Version-only upgrade keeps the dependency edges.
	if err := u.Upgrade("libc", "2.36", nil); err != nil {
		t.Fatal(err)
	}
	if p, _ := u.Get("libc"); p.ID() != "libc=2.36" {
		t.Errorf("after upgrade Get(libc) = %+v", p)
	}
	// An upgrade that changes the edges changes the closure.
	if err := u.Upgrade("app", "2.0", []string{"libc", "libssl"}); err != nil {
		t.Fatal(err)
	}
	ids, err := u.ClosureIDs("app")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"app=2.0", "libc=2.36", "libssl=3.0"}
	if !sort.StringsAreSorted(ids) || strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Errorf("closure after upgrade = %v, want %v", ids, want)
	}
	if u.Len() != 3 {
		t.Errorf("Len = %d after upgrades, want 3", u.Len())
	}
}

func TestResolveChain(t *testing.T) {
	u := NewUniverse()
	mustAdd(t, u, Package{Name: "app", Version: "1", Depends: []string{"libx"}})
	mustAdd(t, u, Package{Name: "libx", Version: "2", Depends: []string{"liby"}})
	mustAdd(t, u, Package{Name: "liby", Version: "3"})
	ids, err := u.ClosureIDs("app")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"app=1", "libx=2", "liby=3"}
	if !equalStrings(ids, want) {
		t.Errorf("closure = %v, want %v", ids, want)
	}
}

func TestResolveDiamondAndCycle(t *testing.T) {
	u := NewUniverse()
	mustAdd(t, u, Package{Name: "app", Version: "1", Depends: []string{"l", "r"}})
	mustAdd(t, u, Package{Name: "l", Version: "1", Depends: []string{"base"}})
	mustAdd(t, u, Package{Name: "r", Version: "1", Depends: []string{"base"}})
	mustAdd(t, u, Package{Name: "base", Version: "1", Depends: []string{"app"}}) // cycle back
	pkgs, err := u.Resolve("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 4 {
		t.Errorf("diamond+cycle closure = %d packages, want 4", len(pkgs))
	}
}

func TestResolveErrors(t *testing.T) {
	u := NewUniverse()
	mustAdd(t, u, Package{Name: "app", Version: "1", Depends: []string{"ghost"}})
	if _, err := u.Resolve("nothere"); err == nil {
		t.Error("Resolve(unknown) succeeded")
	}
	if _, err := u.Resolve("app"); err == nil {
		t.Error("Resolve with missing dependency succeeded")
	}
}

func TestRecord(t *testing.T) {
	u := NewUniverse()
	mustAdd(t, u, Package{Name: "riak", Version: "1.4", Depends: []string{"libc6"}})
	mustAdd(t, u, Package{Name: "libc6", Version: "2.19"})
	rec, err := u.Record("Riak1", "S1", "riak")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Software.Pgm != "Riak1" || rec.Software.HW != "S1" {
		t.Errorf("record header = %+v", rec.Software)
	}
	if !equalStrings(rec.Software.Dep, []string{"libc6=2.19"}) {
		t.Errorf("record deps = %v (root must be excluded)", rec.Software.Dep)
	}
	if _, err := u.Record("X", "S1", "ghost"); err == nil {
		t.Error("Record with unknown root succeeded")
	}
}

func TestKeyValueStoreUniverseClosureSizes(t *testing.T) {
	u, roots := KeyValueStoreUniverse()
	if !equalStrings(roots, []string{"riak", "mongodb", "redis", "couchdb"}) {
		t.Fatalf("roots = %v", roots)
	}
	wantSizes := map[string]int{}
	for i, s := range kvStores {
		total := 0
		for mask, count := range kvRegionSizes {
			if mask&s.Bit != 0 {
				total += count
			}
		}
		wantSizes[roots[i]] = total
	}
	for _, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			t.Fatalf("%s: %v", root, err)
		}
		if len(ids) != wantSizes[root] {
			t.Errorf("%s closure = %d packages, want %d", root, len(ids), wantSizes[root])
		}
	}
}

// TestKeyValueStoreRecords: over the real universe, each store's software
// record names the program and host and lists its closure without the root.
func TestKeyValueStoreRecords(t *testing.T) {
	u, roots := KeyValueStoreUniverse()
	for _, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			t.Fatalf("%s: %v", root, err)
		}
		rec, err := u.Record(root+"1", "S1", root)
		if err != nil {
			t.Fatalf("%s: %v", root, err)
		}
		if rec.Software.Pgm != root+"1" || rec.Software.HW != "S1" {
			t.Errorf("%s record header = %+v", root, rec.Software)
		}
		if len(rec.Software.Dep) != len(ids)-1 {
			t.Errorf("%s record: %d deps, want %d (closure minus root)", root, len(rec.Software.Dep), len(ids)-1)
		}
		if err := rec.Validate(); err != nil {
			t.Errorf("%s record invalid: %v", root, err)
		}
	}
}

func TestKeyValueStoreUniverseHasRealisticNames(t *testing.T) {
	u, _ := KeyValueStoreUniverse()
	ids, err := u.ClosureIDs("riak")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(ids, " ")
	for _, want := range []string{"libc6=2.19", "libssl1.0.0=1.0.1k", "libsvn1=1.8.10", "erlang-base=17.3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("riak closure missing %s", want)
		}
	}
	// The shared OpenSSL package must be in all four closures (the
	// Heartbleed-style common dependency the paper motivates with [23]).
	for _, root := range []string{"mongodb", "redis", "couchdb"} {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(strings.Join(ids, " "), "libssl1.0.0=1.0.1k") {
			t.Errorf("%s closure missing shared libssl", root)
		}
	}
}

// TestTable2JaccardReproduction is the acceptance test for Table 2:
// every Jaccard similarity is within ±0.0035 of the paper, and both the
// two-way and three-way rankings match exactly.
func TestTable2JaccardReproduction(t *testing.T) {
	u, roots := KeyValueStoreUniverse()
	sets := make([]deps.ComponentSet, len(roots))
	for i, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = deps.NewComponentSet(ids...)
	}
	paper := Table2Paper()
	measured := make(map[string]float64)
	for key, want := range paper {
		var members []deps.ComponentSet
		for _, idxStr := range strings.Split(key, "+") {
			members = append(members, sets[int(idxStr[0]-'1')])
		}
		got := deps.Jaccard(members...)
		measured[key] = got
		if math.Abs(got-want) > 0.0035 {
			t.Errorf("J(%s) = %.4f, paper %.4f (|Δ| > 0.0035)", key, got, want)
		}
	}
	// Ranking preservation: sort keys by measured and by paper; orders must
	// match within each deployment arity.
	for _, arity := range []int{2, 3} {
		var keys []string
		for k := range paper {
			if strings.Count(k, "+") == arity-1 {
				keys = append(keys, k)
			}
		}
		byPaper := append([]string(nil), keys...)
		byMeasured := append([]string(nil), keys...)
		sort.Slice(byPaper, func(i, j int) bool { return paper[byPaper[i]] < paper[byPaper[j]] })
		sort.Slice(byMeasured, func(i, j int) bool { return measured[byMeasured[i]] < measured[byMeasured[j]] })
		if !equalStrings(byPaper, byMeasured) {
			t.Errorf("%d-way ranking differs: paper %v, measured %v", arity, byPaper, byMeasured)
		}
	}
}

func TestRegionPackagesCounts(t *testing.T) {
	for mask, count := range kvRegionSizes {
		pkgs := regionPackages(mask, count)
		want := count
		if mask == bitRiak || mask == bitMongoDB || mask == bitRedis || mask == bitCouchDB {
			want--
		}
		if len(pkgs) != want {
			t.Errorf("region %04b: %d packages, want %d", mask, len(pkgs), want)
		}
		seen := map[string]bool{}
		for _, p := range pkgs {
			if seen[p.Name] {
				t.Errorf("region %04b: duplicate package %s", mask, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

func mustAdd(t *testing.T, u *Universe, p Package) {
	t.Helper()
	if err := u.Add(p); err != nil {
		t.Fatal(err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
