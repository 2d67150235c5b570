package deps

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{KindNetwork, "network"},
		{KindHardware, "hardware"},
		{KindSoftware, "software"},
		{Kind(42), "Kind(42)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestKindFromString(t *testing.T) {
	for _, k := range []Kind{KindNetwork, KindHardware, KindSoftware} {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if got, err := KindFromString("  Network "); err != nil || got != KindNetwork {
		t.Errorf("KindFromString with spaces/case = %v, %v", got, err)
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("KindFromString(bogus) should fail")
	}
}

func TestRecordValidate(t *testing.T) {
	valid := []Record{
		NewNetwork("S1", "Internet", "ToR1", "Core1"),
		NewNetwork("S1", "Internet"), // empty route is allowed (direct link)
		NewHardware("S1", "CPU", "S1-Intel(R)X5550@2.6GHz"),
		NewSoftware("Riak1", "S1", "libc6", "libsvn1"),
		NewSoftware("Riak1", "S1"), // program with no package deps
	}
	for i, r := range valid {
		if err := r.Validate(); err != nil {
			t.Errorf("valid record %d rejected: %v", i, err)
		}
	}
	invalid := []Record{
		{Kind: KindNetwork}, // missing payload
		{Kind: KindHardware, Network: &Network{Src: "a", Dst: "b"}}, // wrong payload
		NewNetwork("", "Internet", "x"),                             // missing src
		NewNetwork("S1", "", "x"),                                   // missing dst
		NewNetwork("S1", "Internet", ""),                            // empty route hop
		NewHardware("", "CPU", "m"),                                 // missing hw
		NewHardware("S1", "", "m"),                                  // missing type
		NewHardware("S1", "CPU", ""),                                // missing dep
		NewSoftware("", "S1", "libc6"),                              // missing pgm
		NewSoftware("Riak", "", "libc6"),                            // missing hw
		NewSoftware("Riak", "S1", ""),                               // empty dep
		{Kind: Kind(9)},                                             // unknown kind
		{Kind: KindNetwork, Network: &Network{Src: "a", Dst: "b"}, Hardware: &Hardware{}}, // extra payload
	}
	for i, r := range invalid {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid record %d accepted: %v", i, r)
		}
	}
}

// TestValidateAllocatesNothing gates the check every ingested record passes
// twice (at the wire boundary and again when DepDB stages it): a valid
// record of each kind validates with no allocation, and a separator is found
// wherever it sits in a name, multi-byte neighbours included.
func TestValidateAllocatesNothing(t *testing.T) {
	records := []Record{
		NewNetwork("srv0_1_2", "Internet", "tor0_1", "agg0_0", "core0_0"),
		NewHardware("srv0_3_3", "NIC", "srv0_3_3-BCM5709-1GbE"),
		NewSoftware("svc", "srv0_1_0", "libc=2.19", "libevent=2.0.21", "openssl=1.0.1"),
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, r := range records {
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %.0f times per pass, want 0", allocs)
	}
	for _, name := range []string{"\x1ea", "a\x1f", "é\x1eé", "\x1f"} {
		if !hasSeparator("ok", name) {
			t.Errorf("hasSeparator misses the separator in %q", name)
		}
	}
	if hasSeparator("", "é\u241e", "\x1d \x20") {
		t.Error("hasSeparator reports a separator in names without one")
	}
}

func TestRecordSubject(t *testing.T) {
	cases := []struct {
		r    Record
		want string
	}{
		{NewNetwork("S1", "Internet", "ToR1"), "S1"},
		{NewHardware("S2", "Disk", "S2-SED900"), "S2"},
		{NewSoftware("Riak1", "S3", "libc6"), "S3"},
		{Record{Kind: KindNetwork}, ""},
	}
	for i, c := range cases {
		if got := c.r.Subject(); got != c.want {
			t.Errorf("case %d: Subject() = %q, want %q", i, got, c.want)
		}
	}
}

func TestRecordComponents(t *testing.T) {
	cases := []struct {
		r    Record
		want []string
	}{
		{NewNetwork("S1", "Internet", "ToR1", "Core1"), []string{"ToR1", "Core1"}},
		{NewHardware("S1", "CPU", "m1"), []string{"m1"}},
		{NewSoftware("Riak1", "S1", "libc6", "libsvn1"), []string{"Riak1", "libc6", "libsvn1"}},
	}
	for i, c := range cases {
		if got := c.r.Components(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: Components() = %v, want %v", i, got, c.want)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := NewNetwork("S1", "Internet", "ToR1", "Core1")
	want := `<src="S1" dst="Internet" route="ToR1,Core1"/>`
	if got := r.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	h := NewHardware("S1", "CPU", "S1-X5550")
	if !strings.Contains(h.String(), `type="CPU"`) {
		t.Errorf("hardware String() missing type: %s", h.String())
	}
	s := NewSoftware("Riak1", "S1", "libc6")
	if !strings.Contains(s.String(), `pgm="Riak1"`) {
		t.Errorf("software String() missing pgm: %s", s.String())
	}
}

func TestRecordEqual(t *testing.T) {
	a := NewNetwork("S1", "Internet", "ToR1", "Core1")
	b := NewNetwork("S1", "Internet", "ToR1", "Core1")
	c := NewNetwork("S1", "Internet", "ToR1", "Core2")
	if !a.Equal(b) {
		t.Error("identical network records not Equal")
	}
	if a.Equal(c) {
		t.Error("different routes compare Equal")
	}
	if a.Equal(NewHardware("S1", "CPU", "m")) {
		t.Error("different kinds compare Equal")
	}
	s1 := NewSoftware("P", "S1", "x", "y")
	s2 := NewSoftware("P", "S1", "x", "y")
	s3 := NewSoftware("P", "S1", "y", "x")
	if !s1.Equal(s2) || s1.Equal(s3) {
		t.Error("software Equal mismatch")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	records := []Record{
		NewNetwork("S1", "Internet", "ToR1", "Core1"),
		NewNetwork("S1", "Internet", "ToR1", "Core2"),
		NewNetwork("S2", "Internet", "ToR1", "Core1"),
		NewHardware("S1", "CPU", "S1-Intel(R)X5550@2.6GHz"),
		NewHardware("S1", "Disk", "S1-SED900"),
		NewSoftware("QueryEngine1", "S1", "libc6", "libgcc1"),
		NewSoftware("Riak1", "S1", "libc6", "libsvn1"),
	}
	var buf bytes.Buffer
	if err := EncodeXML(&buf, records); err != nil {
		t.Fatalf("EncodeXML: %v", err)
	}
	got, err := DecodeXML(&buf)
	if err != nil {
		t.Fatalf("DecodeXML: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip length %d, want %d", len(got), len(records))
	}
	for i := range records {
		if !records[i].Equal(got[i]) {
			t.Errorf("record %d: got %v, want %v", i, got[i], records[i])
		}
	}
}

func TestXMLEncodeRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeXML(&buf, []Record{{Kind: KindNetwork}})
	if err == nil {
		t.Fatal("EncodeXML accepted an invalid record")
	}
}

func TestXMLDecodeHandWritten(t *testing.T) {
	doc := `<?xml version="1.0"?>
<dependencies>
  <network src="S1" dst="Internet" route="ToR1, Core1 "/>
  <hardware hw="S1" type="CPU" dep="S1-X5550"/>
  <software pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>
  <software pgm="Solo" hw="S2" dep=""/>
</dependencies>`
	got, err := DecodeXML(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("DecodeXML: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d records, want 4", len(got))
	}
	if !got[0].Equal(NewNetwork("S1", "Internet", "ToR1", "Core1")) {
		t.Errorf("route list not trimmed: %v", got[0])
	}
	if got[3].Software == nil || len(got[3].Software.Dep) != 0 {
		t.Errorf("empty dep list should decode to no deps: %v", got[3])
	}
}

func TestXMLDecodeMalformed(t *testing.T) {
	if _, err := DecodeXML(strings.NewReader("this is not xml")); err == nil {
		t.Error("DecodeXML accepted garbage")
	}
	if _, err := DecodeXML(strings.NewReader(`<dependencies><network src="" dst="d"/></dependencies>`)); err == nil {
		t.Error("DecodeXML accepted record with empty src")
	}
}

func TestXMLRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := func() string {
		letters := "abcdefghijklmnopqrstuvwxyzABC0123456789._-()@/"
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var records []Record
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				var route []string
				for j := 0; j < r.Intn(5); j++ {
					route = append(route, word())
				}
				records = append(records, NewNetwork(word(), word(), route...))
			case 1:
				records = append(records, NewHardware(word(), word(), word()))
			default:
				var dep []string
				for j := 0; j < r.Intn(6); j++ {
					dep = append(dep, word())
				}
				records = append(records, NewSoftware(word(), word(), dep...))
			}
		}
		// XML grouping by kind: compare kind-grouped order.
		sort.SliceStable(records, func(i, j int) bool { return records[i].Kind < records[j].Kind })
		var buf bytes.Buffer
		if err := EncodeXML(&buf, records); err != nil {
			return false
		}
		got, err := DecodeXML(&buf)
		if err != nil || len(got) != len(records) {
			return false
		}
		for i := range records {
			if !records[i].Equal(got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestComponentSetOps(t *testing.T) {
	a := NewComponentSet("x", "y", "z")
	b := NewComponentSet("y", "z", "w")
	if got := a.Intersect(b).Sorted(); !reflect.DeepEqual(got, []string{"y", "z"}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b).Sorted(); !reflect.DeepEqual(got, []string{"w", "x", "y", "z"}) {
		t.Errorf("Union = %v", got)
	}
	if a.Len() != 3 || !a.Contains("x") || a.Contains("w") {
		t.Error("basic set ops broken")
	}
	a.Add("w")
	if !a.Contains("w") {
		t.Error("Add failed")
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		sets []ComponentSet
		want float64
	}{
		{nil, 0},
		{[]ComponentSet{NewComponentSet()}, 0},
		{[]ComponentSet{NewComponentSet("a", "b")}, 1},
		{[]ComponentSet{NewComponentSet("a", "b"), NewComponentSet("b", "c")}, 1.0 / 3.0},
		{[]ComponentSet{NewComponentSet("a"), NewComponentSet("b")}, 0},
		{[]ComponentSet{NewComponentSet("a", "b", "c"), NewComponentSet("a", "b", "c")}, 1},
		{[]ComponentSet{NewComponentSet("a", "b"), NewComponentSet("a", "c"), NewComponentSet("a", "d")}, 0.25},
	}
	for i, c := range cases {
		if got := Jaccard(c.sets...); got != c.want {
			t.Errorf("case %d: Jaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := make(ComponentSet), make(ComponentSet)
		for _, x := range xs {
			a.Add(string(rune('a' + x%26)))
		}
		for _, y := range ys {
			b.Add(string(rune('a' + y%26)))
		}
		j := Jaccard(a, b)
		if j < 0 || j > 1 {
			return false
		}
		// Symmetry.
		if Jaccard(b, a) != j {
			return false
		}
		// Identity.
		if a.Len() > 0 && Jaccard(a, a) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizer(t *testing.T) {
	n := NewNormalizer("cloud1")
	if err := n.AddRouter("isp-gw", "203.0.113.7"); err != nil {
		t.Fatalf("AddRouter: %v", err)
	}
	if err := n.AddRouter("bad", "not-an-ip"); err == nil {
		t.Error("AddRouter accepted an invalid IP")
	}
	n.AddSharedPackage("libssl=1.0.1")

	if got := n.Router("isp-gw"); got != "router:203.0.113.7" {
		t.Errorf("Router(isp-gw) = %q", got)
	}
	if got := n.Router("tor-17"); got != "cloud1/tor-17" {
		t.Errorf("Router(tor-17) = %q", got)
	}
	if got := n.Package("libssl=1.0.1"); got != "pkg:libssl=1.0.1" {
		t.Errorf("Package(shared) = %q", got)
	}
	if got := n.Package("internal-lib=2"); got != "cloud1/internal-lib=2" {
		t.Errorf("Package(private) = %q", got)
	}
	if !IsShared("router:203.0.113.7") || !IsShared("pkg:x=1") || IsShared("cloud1/x") {
		t.Error("IsShared misclassifies")
	}
}

func TestNormalizerComponentSetFromRecords(t *testing.T) {
	n := NewNormalizer("c1")
	if err := n.AddRouter("core1", "198.51.100.1"); err != nil {
		t.Fatal(err)
	}
	n.AddSharedPackage("libc6=2.19")
	records := []Record{
		NewNetwork("S1", "Internet", "tor1", "core1"),
		NewHardware("S1", "Disk", "S1-SED900"),
		NewSoftware("Riak", "S1", "libc6=2.19", "riak-core=1.4"),
	}
	set := n.ComponentSetFromRecords(records)
	want := []string{"c1/S1-SED900", "c1/riak-core=1.4", "c1/tor1", "pkg:libc6=2.19", "router:198.51.100.1"}
	if got := set.Sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("ComponentSetFromRecords = %v, want %v", got, want)
	}
	// Two providers sharing the third-party router and package overlap only
	// on those.
	n2 := NewNormalizer("c2")
	if err := n2.AddRouter("edge9", "198.51.100.1"); err != nil {
		t.Fatal(err)
	}
	n2.AddSharedPackage("libc6=2.19")
	set2 := n2.ComponentSetFromRecords([]Record{
		NewNetwork("X", "Internet", "edge9"),
		NewSoftware("Redis", "X", "libc6=2.19"),
	})
	inter := set.Intersect(set2).Sorted()
	if !reflect.DeepEqual(inter, []string{"pkg:libc6=2.19", "router:198.51.100.1"}) {
		t.Errorf("cross-provider intersection = %v", inter)
	}
}
