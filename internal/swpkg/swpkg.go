// Package swpkg simulates a software package universe and implements an
// apt-rdepends-style recursive dependency resolver — the software dependency
// acquisition module of the paper's prototype (§3, [17]).
//
// A Universe is a set of versioned packages with dependency edges; Resolve
// computes the transitive closure of a package's dependencies, which is
// exactly what the paper stores as the "dep" list of a software dependency
// record (Table 1) and what PIA compares across providers (§4.2.3).
package swpkg

import (
	"fmt"
	"sort"

	"indaas/internal/deps"
)

// Package is one versioned software package.
type Package struct {
	Name    string
	Version string
	// Depends lists the names of directly required packages.
	Depends []string
}

// ID returns the canonical "name=version" identifier used for PIA
// normalization (§4.2.3: "standard names plus version numbers").
func (p Package) ID() string { return p.Name + "=" + p.Version }

// Universe is a package database. The zero value is not usable; call
// NewUniverse.
type Universe struct {
	pkgs map[string]Package
}

// NewUniverse returns an empty package universe.
func NewUniverse() *Universe {
	return &Universe{pkgs: make(map[string]Package)}
}

// Add registers a package. Duplicate names are rejected.
func (u *Universe) Add(p Package) error {
	if p.Name == "" || p.Version == "" {
		return fmt.Errorf("swpkg: package needs name and version, got %+v", p)
	}
	if _, dup := u.pkgs[p.Name]; dup {
		return fmt.Errorf("swpkg: duplicate package %q", p.Name)
	}
	u.pkgs[p.Name] = Package{Name: p.Name, Version: p.Version, Depends: append([]string(nil), p.Depends...)}
	return nil
}

// Upgrade replaces an installed package's version (and, when depends is
// non-nil, its dependency edges) — a rolling software upgrade as the agent
// fleet's churn generator replays it. Unknown packages are an error: an
// upgrade of something never installed is Add's job.
func (u *Universe) Upgrade(name, version string, depends []string) error {
	if version == "" {
		return fmt.Errorf("swpkg: upgrade of %q needs a version", name)
	}
	p, ok := u.pkgs[name]
	if !ok {
		return fmt.Errorf("swpkg: cannot upgrade unknown package %q", name)
	}
	p.Version = version
	if depends != nil {
		p.Depends = append([]string(nil), depends...)
	}
	u.pkgs[name] = p
	return nil
}

// Get looks up a package by name.
func (u *Universe) Get(name string) (Package, bool) {
	p, ok := u.pkgs[name]
	return p, ok
}

// Len returns the number of packages in the universe.
func (u *Universe) Len() int { return len(u.pkgs) }

// Resolve returns the transitive dependency closure of root, including root
// itself, sorted by name. Dependency cycles are tolerated (each package
// appears once); missing dependencies are an error, like a broken apt index.
func (u *Universe) Resolve(root string) ([]Package, error) {
	if _, ok := u.pkgs[root]; !ok {
		return nil, fmt.Errorf("swpkg: unknown package %q", root)
	}
	seen := map[string]bool{root: true}
	queue := []string{root}
	var out []Package
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		p, ok := u.pkgs[name]
		if !ok {
			return nil, fmt.Errorf("swpkg: package %q depends on missing package %q", root, name)
		}
		out = append(out, p)
		for _, d := range p.Depends {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ClosureIDs returns the sorted "name=version" identifiers of root's
// dependency closure, including root itself.
func (u *Universe) ClosureIDs(root string) ([]string, error) {
	pkgs, err := u.Resolve(root)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.ID()
	}
	return out, nil
}

// Record produces the Table 1 software dependency record for program pgm
// running on machine hw with the given root package: the record's dep list
// is the dependency closure, excluding the root package itself (the root is
// the record's pgm).
func (u *Universe) Record(pgm, hw, root string) (deps.Record, error) {
	ids, err := u.ClosureIDs(root)
	if err != nil {
		return deps.Record{}, err
	}
	rootID := u.pkgs[root].ID()
	depIDs := make([]string, 0, len(ids)-1)
	for _, id := range ids {
		if id != rootID {
			depIDs = append(depIDs, id)
		}
	}
	return deps.NewSoftware(pgm, hw, depIDs...), nil
}
