// Package topology models data-center network topologies: the three-stage
// fat trees used by the paper's performance evaluation (Table 3, [45]) and a
// Benson-style measured data center [9] for the §6.2.1 case study.
//
// A topology knows its devices and, for every server, the redundant routes
// to the Internet (and between servers), expressed as ordered device lists —
// exactly the network dependency records of Table 1.
package topology

import (
	"fmt"

	"indaas/internal/deps"
)

// Kind classifies a device.
type Kind int

const (
	// KindServer is a host machine.
	KindServer Kind = iota
	// KindToR is a top-of-rack (edge) switch.
	KindToR
	// KindAgg is an aggregation switch.
	KindAgg
	// KindCore is a core router.
	KindCore
)

// String returns the device kind's name.
func (k Kind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindToR:
		return "tor"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is one network element or host.
type Device struct {
	Name string
	Kind Kind
	Pod  int // pod index for fat-tree members; -1 when not applicable
}

// Counts tallies devices by kind (the rows of Table 3).
type Counts struct {
	Cores, Aggs, ToRs, Servers int
}

// Total returns the total device count (servers + switches + routers).
func (c Counts) Total() int { return c.Cores + c.Aggs + c.ToRs + c.Servers }

// Switches returns the number of non-server devices.
func (c Counts) Switches() int { return c.Cores + c.Aggs + c.ToRs }

// Topology is an immutable network topology.
type Topology struct {
	Name    string
	devices []Device
	byName  map[string]int
	// routesUp[server] lists the redundant routes from the server to the
	// Internet; each route is the ordered device names traversed
	// (excluding the server itself and the Internet).
	routesUp map[string][][]string
	// routeFn lazily generates routes for generative topologies (fat trees)
	// where materializing every server's route list would be prohibitive.
	routeFn func(server string) ([][]string, error)
}

// Devices returns all devices. The slice is shared; treat as read-only.
func (t *Topology) Devices() []Device { return t.devices }

// Device looks a device up by name.
func (t *Topology) Device(name string) (Device, bool) {
	i, ok := t.byName[name]
	if !ok {
		return Device{}, false
	}
	return t.devices[i], true
}

// Servers returns the names of all servers in deterministic order.
func (t *Topology) Servers() []string {
	var out []string
	for _, d := range t.devices {
		if d.Kind == KindServer {
			out = append(out, d.Name)
		}
	}
	return out
}

// Counts tallies the devices by kind.
func (t *Topology) Counts() Counts {
	var c Counts
	for _, d := range t.devices {
		switch d.Kind {
		case KindCore:
			c.Cores++
		case KindAgg:
			c.Aggs++
		case KindToR:
			c.ToRs++
		case KindServer:
			c.Servers++
		}
	}
	return c
}

// RoutesToInternet returns the redundant routes from server to the Internet.
// The result is a deep copy (or freshly generated for lazy topologies).
func (t *Topology) RoutesToInternet(server string) ([][]string, error) {
	if routes, ok := t.routesUp[server]; ok {
		out := make([][]string, len(routes))
		for i, r := range routes {
			out[i] = append([]string(nil), r...)
		}
		return out, nil
	}
	if t.routeFn != nil {
		if d, ok := t.Device(server); ok && d.Kind == KindServer {
			return t.routeFn(server)
		}
	}
	return nil, fmt.Errorf("topology: unknown server %q", server)
}

// NetworkRecords returns the ground-truth Table 1 network records of the
// given servers (empty means every server): one record per redundant route
// to the Internet, in route order — the idealized acquisition used when
// mining noise is not under study.
func (t *Topology) NetworkRecords(subjects []string) ([]deps.Record, error) {
	if len(subjects) == 0 {
		subjects = t.Servers()
	}
	var out []deps.Record
	for _, s := range subjects {
		routes, err := t.RoutesToInternet(s)
		if err != nil {
			return nil, err
		}
		for _, r := range routes {
			out = append(out, deps.NewNetwork(s, "Internet", r...))
		}
	}
	return out, nil
}

// builder helpers --------------------------------------------------------

type builder struct {
	t   *Topology
	err error
}

func newTopologyBuilder(name string) *builder {
	return &builder{t: &Topology{
		Name:     name,
		byName:   make(map[string]int),
		routesUp: make(map[string][][]string),
	}}
}

func (b *builder) addDevice(name string, kind Kind, pod int) {
	if b.err != nil {
		return
	}
	if _, dup := b.t.byName[name]; dup {
		b.err = fmt.Errorf("topology: duplicate device %q", name)
		return
	}
	b.t.byName[name] = len(b.t.devices)
	b.t.devices = append(b.t.devices, Device{Name: name, Kind: kind, Pod: pod})
}

func (b *builder) addRoute(server string, route ...string) {
	if b.err != nil {
		return
	}
	if _, ok := b.t.byName[server]; !ok {
		b.err = fmt.Errorf("topology: route for unknown server %q", server)
		return
	}
	for _, d := range route {
		if _, ok := b.t.byName[d]; !ok {
			b.err = fmt.Errorf("topology: route via unknown device %q", d)
			return
		}
	}
	b.t.routesUp[server] = append(b.t.routesUp[server], route)
}

func (b *builder) build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.t.routeFn == nil {
		for _, d := range b.t.devices {
			if d.Kind == KindServer && len(b.t.routesUp[d.Name]) == 0 {
				return nil, fmt.Errorf("topology: server %q has no routes", d.Name)
			}
		}
	}
	return b.t, nil
}
