// Package hwinv simulates hardware inventory acquisition — the paper's lshw
// (HardwareLister) dependency acquisition module (§3, [61]).
//
// A Machine carries the physical components lshw would report (CPU, disk,
// RAM, NIC, RAID controller); Collect walks the inventory and emits Table 1
// hardware dependency records. Following the paper's Fig. 3, component model
// identifiers are qualified with the machine name ("S1-SED900") by default,
// so that identical models in different machines stay distinct components;
// batch mode drops the qualifier to expose shared hardware batches
// (same-model correlated failures) for ablation studies.
package hwinv

import (
	"fmt"
	"math/rand"

	"indaas/internal/deps"
)

// Component is one physical part of a machine.
type Component struct {
	Type  string // CPU, Disk, RAM, NIC, RAID
	Model string // catalog model identifier
}

// Machine is a host with its hardware inventory.
type Machine struct {
	Name       string
	Components []Component
}

// Catalog lists the component models the generator draws from, loosely
// modelled on mid-2010s server hardware like the paper's testbed.
var Catalog = map[string][]string{
	"CPU":  {"Intel(R)X5550@2.6GHz", "Intel(R)E5-2650@2.0GHz", "AMD-Opteron6272@2.1GHz"},
	"Disk": {"SED900", "ST2000DM001", "WD2003FYYS", "Intel-SSD-DC3500"},
	"RAM":  {"DDR3-1333-ECC-8GB", "DDR3-1600-ECC-16GB"},
	"NIC":  {"Intel-82599ES-10GbE", "BCM5709-1GbE"},
	"RAID": {"LSI-MegaRAID-9260", "HP-SmartArray-P410"},
}

// componentTypes is the deterministic walk order of the inventory.
var componentTypes = []string{"CPU", "Disk", "RAM", "NIC", "RAID"}

// Generate creates a machine with a pseudo-random but seed-deterministic
// inventory drawn from the catalog.
func Generate(name string, seed int64) Machine {
	rng := rand.New(rand.NewSource(seed))
	m := Machine{Name: name}
	for _, typ := range componentTypes {
		models := Catalog[typ]
		m.Components = append(m.Components, Component{Type: typ, Model: models[rng.Intn(len(models))]})
	}
	return m
}

// GenerateFleet creates n machines named <prefix>1..<prefix>n with
// inventories derived deterministically from seed.
func GenerateFleet(prefix string, n int, seed int64) []Machine {
	out := make([]Machine, n)
	for i := range out {
		out[i] = Generate(fmt.Sprintf("%s%d", prefix, i+1), seed+int64(i)*7919)
	}
	return out
}

// Collect walks a machine's inventory and emits Table 1 hardware records.
// With qualified=true (the paper's Fig. 3 convention) model identifiers are
// prefixed "name-", keeping per-machine components distinct; with
// qualified=false the raw model identifier is used, so machines sharing a
// hardware batch share components.
func Collect(m Machine, qualified bool) []deps.Record {
	out := make([]deps.Record, 0, len(m.Components))
	for _, c := range m.Components {
		dep := c.Model
		if qualified {
			dep = m.Name + "-" + c.Model
		}
		out = append(out, deps.NewHardware(m.Name, c.Type, dep))
	}
	return out
}

// CollectFleet collects every machine in the fleet.
func CollectFleet(ms []Machine, qualified bool) []deps.Record {
	var out []deps.Record
	for _, m := range ms {
		out = append(out, Collect(m, qualified)...)
	}
	return out
}
