// Package deps defines INDaaS's uniform representation of structural
// dependency data (Table 1 of the paper).
//
// Three record kinds cover the three most common causes of correlated
// failures: network dependencies (a route from a source to a destination
// through network devices), hardware dependencies (a physical component of a
// machine, identified by its model), and software dependencies (a program and
// the packages it transitively requires).
//
// Records are produced by dependency acquisition modules (see packages
// netflow, hwinv and swpkg), stored in a DepDB (package depdb), and consumed
// by the auditing protocols (packages sia and pia).
package deps

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the dependency record types of Table 1.
type Kind int

const (
	// KindNetwork is a route dependency: <src="S" dst="D" route="x,y,z"/>.
	KindNetwork Kind = iota
	// KindHardware is a physical component: <hw="H" type="T" dep="x"/>.
	KindHardware
	// KindSoftware is a package dependency: <pgm="S" hw="H" dep="x,y,z"/>.
	KindSoftware
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNetwork:
		return "network"
	case KindHardware:
		return "hardware"
	case KindSoftware:
		return "software"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindFromString parses the name produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "network":
		return KindNetwork, nil
	case "hardware":
		return KindHardware, nil
	case "software":
		return KindSoftware, nil
	}
	return 0, fmt.Errorf("deps: unknown dependency kind %q", s)
}

// Network describes one route from Src to Dst via the ordered network
// devices in Route. A server typically has several Network records for the
// same (Src, Dst) pair, one per redundant route; the server's connectivity
// fails only when every route fails (an AND of routes), while each route
// fails when any device on it fails (an OR of devices).
type Network struct {
	Src   string   // source endpoint, e.g. a server name
	Dst   string   // destination endpoint, e.g. "Internet"
	Route []string // devices traversed, in order
}

// Hardware describes one physical component of machine HW. Type is the
// component class (CPU, Disk, RAM, NIC, ...) and Dep its model identifier.
// Following Fig. 3 of the paper, model identifiers are qualified per machine
// ("S1-SED900") unless the acquirer deliberately exposes shared batches.
type Hardware struct {
	HW   string // machine that contains the component
	Type string // component class
	Dep  string // component model identifier
}

// Software describes a program Pgm running on machine HW together with the
// packages it depends on (transitively resolved by the acquirer).
type Software struct {
	Pgm string   // program name
	HW  string   // machine the program runs on
	Dep []string // package identifiers, typically name=version
}

// Record is a tagged union of the three dependency kinds; exactly one of
// Network, Hardware, Software is non-nil, matching Kind.
type Record struct {
	Kind     Kind
	Network  *Network
	Hardware *Hardware
	Software *Software
}

// NewNetwork wraps a Network dependency in a Record.
func NewNetwork(src, dst string, route ...string) Record {
	return Record{Kind: KindNetwork, Network: &Network{Src: src, Dst: dst, Route: append([]string(nil), route...)}}
}

// NewHardware wraps a Hardware dependency in a Record.
func NewHardware(hw, typ, dep string) Record {
	return Record{Kind: KindHardware, Hardware: &Hardware{HW: hw, Type: typ, Dep: dep}}
}

// NewSoftware wraps a Software dependency in a Record.
func NewSoftware(pgm, hw string, dep ...string) Record {
	return Record{Kind: KindSoftware, Software: &Software{Pgm: pgm, HW: hw, Dep: append([]string(nil), dep...)}}
}

// Validate reports whether the record is structurally sound: the payload
// matching Kind is present, all others absent, mandatory fields set, and no
// name holds U+001E or U+001F — the bytes DepDB's canonical record line
// separates lists and fields with, so that line stays injective.
func (r Record) Validate() error {
	switch r.Kind {
	case KindNetwork:
		if r.Network == nil || r.Hardware != nil || r.Software != nil {
			return fmt.Errorf("deps: network record with wrong payload")
		}
		if r.Network.Src == "" || r.Network.Dst == "" {
			return fmt.Errorf("deps: network record needs src and dst")
		}
		for _, d := range r.Network.Route {
			if d == "" {
				return fmt.Errorf("deps: network record %s->%s has empty route element", r.Network.Src, r.Network.Dst)
			}
		}
		if hasSeparator(r.Network.Src, r.Network.Dst) || hasSeparator(r.Network.Route...) {
			return fmt.Errorf("deps: network record %q->%q: %s", r.Network.Src, r.Network.Dst, separatorErr)
		}
	case KindHardware:
		if r.Hardware == nil || r.Network != nil || r.Software != nil {
			return fmt.Errorf("deps: hardware record with wrong payload")
		}
		if r.Hardware.HW == "" || r.Hardware.Type == "" || r.Hardware.Dep == "" {
			return fmt.Errorf("deps: hardware record needs hw, type and dep")
		}
		if hasSeparator(r.Hardware.HW, r.Hardware.Type, r.Hardware.Dep) {
			return fmt.Errorf("deps: hardware record %q/%q: %s", r.Hardware.HW, r.Hardware.Type, separatorErr)
		}
	case KindSoftware:
		if r.Software == nil || r.Network != nil || r.Hardware != nil {
			return fmt.Errorf("deps: software record with wrong payload")
		}
		if r.Software.Pgm == "" || r.Software.HW == "" {
			return fmt.Errorf("deps: software record needs pgm and hw")
		}
		for _, d := range r.Software.Dep {
			if d == "" {
				return fmt.Errorf("deps: software record %s has empty dep", r.Software.Pgm)
			}
		}
		if hasSeparator(r.Software.Pgm, r.Software.HW) || hasSeparator(r.Software.Dep...) {
			return fmt.Errorf("deps: software record %q on %q: %s", r.Software.Pgm, r.Software.HW, separatorErr)
		}
	default:
		return fmt.Errorf("deps: unknown kind %d", int(r.Kind))
	}
	return nil
}

const separatorErr = "a name holds a reserved separator byte (U+001E or U+001F)"

// hasSeparator reports whether any name holds U+001E or U+001F. Both are
// single bytes in UTF-8 that no multi-byte sequence contains, so one pass
// over the bytes finds them.
func hasSeparator(names ...string) bool {
	for _, s := range names {
		for i := 0; i < len(s); i++ {
			if s[i]-'\x1e' < 2 {
				return true
			}
		}
	}
	return false
}

// Subject returns the machine/endpoint a record is about: Src for network
// records, HW for hardware and software records. DepDB indexes on this.
func (r Record) Subject() string {
	switch r.Kind {
	case KindNetwork:
		if r.Network != nil {
			return r.Network.Src
		}
	case KindHardware:
		if r.Hardware != nil {
			return r.Hardware.HW
		}
	case KindSoftware:
		if r.Software != nil {
			return r.Software.HW
		}
	}
	return ""
}

// Components returns the identifiers of every component the record names,
// including the subject itself. Used for component-set extraction (§4.2.3).
func (r Record) Components() []string {
	var out []string
	switch r.Kind {
	case KindNetwork:
		if r.Network != nil {
			out = append(out, r.Network.Route...)
		}
	case KindHardware:
		if r.Hardware != nil {
			out = append(out, r.Hardware.Dep)
		}
	case KindSoftware:
		if r.Software != nil {
			out = append(out, r.Software.Pgm)
			out = append(out, r.Software.Dep...)
		}
	}
	return out
}

// String renders the record in the paper's Table 1 / Fig. 3 notation.
func (r Record) String() string {
	switch r.Kind {
	case KindNetwork:
		if r.Network == nil {
			return "<network:nil/>"
		}
		return fmt.Sprintf(`<src=%q dst=%q route=%q/>`, r.Network.Src, r.Network.Dst, strings.Join(r.Network.Route, ","))
	case KindHardware:
		if r.Hardware == nil {
			return "<hardware:nil/>"
		}
		return fmt.Sprintf(`<hw=%q type=%q dep=%q/>`, r.Hardware.HW, r.Hardware.Type, r.Hardware.Dep)
	case KindSoftware:
		if r.Software == nil {
			return "<software:nil/>"
		}
		return fmt.Sprintf(`<pgm=%q hw=%q dep=%q/>`, r.Software.Pgm, r.Software.HW, strings.Join(r.Software.Dep, ","))
	default:
		return fmt.Sprintf("<unknown kind=%d/>", int(r.Kind))
	}
}

// Equal reports deep equality of two records.
func (r Record) Equal(o Record) bool {
	if r.Kind != o.Kind {
		return false
	}
	switch r.Kind {
	case KindNetwork:
		if (r.Network == nil) != (o.Network == nil) {
			return false
		}
		if r.Network == nil {
			return true
		}
		return r.Network.Src == o.Network.Src && r.Network.Dst == o.Network.Dst && equalStrings(r.Network.Route, o.Network.Route)
	case KindHardware:
		if (r.Hardware == nil) != (o.Hardware == nil) {
			return false
		}
		if r.Hardware == nil {
			return true
		}
		return *r.Hardware == *o.Hardware
	case KindSoftware:
		if (r.Software == nil) != (o.Software == nil) {
			return false
		}
		if r.Software == nil {
			return true
		}
		return r.Software.Pgm == o.Software.Pgm && r.Software.HW == o.Software.HW && equalStrings(r.Software.Dep, o.Software.Dep)
	}
	return false
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

// ComponentSet is an unordered set of normalized component identifiers — the
// most basic level of detail (§4.1.1, Fig. 4a) and the unit PIA operates on.
type ComponentSet map[string]struct{}

// NewComponentSet builds a set from the given identifiers.
func NewComponentSet(ids ...string) ComponentSet {
	s := make(ComponentSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set.
func (s ComponentSet) Add(id string) { s[id] = struct{}{} }

// Contains reports membership.
func (s ComponentSet) Contains(id string) bool { _, ok := s[id]; return ok }

// Len returns the cardinality.
func (s ComponentSet) Len() int { return len(s) }

// Sorted returns the members in lexicographic order.
func (s ComponentSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Union returns s ∪ o as a new set.
func (s ComponentSet) Union(o ComponentSet) ComponentSet {
	u := make(ComponentSet, len(s)+len(o))
	for id := range s {
		u[id] = struct{}{}
	}
	for id := range o {
		u[id] = struct{}{}
	}
	return u
}

// Intersect returns s ∩ o as a new set.
func (s ComponentSet) Intersect(o ComponentSet) ComponentSet {
	small, large := s, o
	if len(o) < len(s) {
		small, large = o, s
	}
	out := make(ComponentSet)
	for id := range small {
		if large.Contains(id) {
			out[id] = struct{}{}
		}
	}
	return out
}

// Jaccard computes the exact Jaccard similarity across one or more sets:
// |S0 ∩ ... ∩ Sk-1| / |S0 ∪ ... ∪ Sk-1| (§4.2.2). Jaccard of zero sets or of
// sets with an empty union is defined as 0.
func Jaccard(sets ...ComponentSet) float64 {
	if len(sets) == 0 {
		return 0
	}
	inter := sets[0]
	union := sets[0]
	for _, s := range sets[1:] {
		inter = inter.Intersect(s)
		union = union.Union(s)
	}
	if union.Len() == 0 {
		return 0
	}
	return float64(inter.Len()) / float64(union.Len())
}
