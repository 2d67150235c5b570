// Command depgen generates dependency datasets in the Table 1 XML format:
// data-center topologies (fat trees, the Benson-style DC), hardware
// inventories, and software package closures. Useful for feeding
// "indaas audit" and "indaas serve -deps" without a live infrastructure.
//
// Usage:
//
//	depgen -kind fattree -k 8 > deps.xml
//	depgen -kind benson > benson.xml
//	depgen -kind hardware -servers 8 -seed 7 > hw.xml
//	depgen -kind software > sw.xml
//	depgen -kind cloudlab > lab.xml
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"indaas/internal/cloudsim"
	"indaas/internal/deps"
	"indaas/internal/hwinv"
	"indaas/internal/swpkg"
	"indaas/internal/topology"
)

func main() {
	kind := flag.String("kind", "", "dataset: fattree, benson, hardware, software, cloudlab")
	k := flag.Int("k", 8, "fat-tree arity (fattree)")
	servers := flag.Int("servers", 4, "number of servers (hardware, fattree subset)")
	seed := flag.Int64("seed", 1, "generator seed (hardware)")
	flag.Parse()

	records, err := generate(*kind, *k, *servers, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "depgen: %v\n", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if err := deps.EncodeXML(w, records); err != nil {
		fmt.Fprintf(os.Stderr, "depgen: %v\n", err)
		os.Exit(1)
	}
}

func generate(kind string, k, servers int, seed int64) ([]deps.Record, error) {
	switch kind {
	case "fattree":
		ft, err := topology.FatTree(k)
		if err != nil {
			return nil, err
		}
		subjects := ft.Servers()
		if servers > 0 && servers < len(subjects) {
			subjects = subjects[:servers]
		}
		return ft.NetworkRecords(subjects)
	case "benson":
		return topology.BensonDC().NetworkRecords(topology.BensonCandidateRacks())
	case "hardware":
		fleet := hwinv.GenerateFleet("S", servers, seed)
		return hwinv.CollectFleet(fleet, true), nil
	case "software":
		u, roots := swpkg.KeyValueStoreUniverse()
		var out []deps.Record
		for i, root := range roots {
			rec, err := u.Record(root, fmt.Sprintf("S%d", i+1), root)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
		return out, nil
	case "cloudlab":
		cloud := cloudsim.FourServerLab(seed)
		if _, err := cloud.PlaceOn("VM7", "Server2"); err != nil {
			return nil, err
		}
		if _, err := cloud.PlaceOn("VM8", "Server2"); err != nil {
			return nil, err
		}
		var out []deps.Record
		for _, vm := range []string{"VM7", "VM8"} {
			recs, err := cloud.DependencyRecords(vm)
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
		}
		return out, nil
	case "":
		return nil, fmt.Errorf("missing -kind (fattree, benson, hardware, software, cloudlab)")
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
