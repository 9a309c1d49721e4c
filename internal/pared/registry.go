package pared

import (
	"fmt"
	"strings"

	"pared/internal/graph"
	"pared/internal/partition/mlkl"
	"pared/internal/partition/rsb"
)

// algorithms is the one table of rebalance algorithm names: cmd/pared -algo,
// pnrbench -mode and the experiments' engine runs all resolve through it, and
// the engine's mode test covers every row. pnr is the paper's coordinator
// pipeline with the migration-aware repartitioner; rsb and mlkl keep the
// pipeline and substitute a from-scratch partitioner (the paper's comparison
// baselines); sfc, distrefine and hier are the coordinator-free strategies.
var algorithms = []struct {
	name string
	cfg  Config
}{
	{"pnr", Config{}},
	{"rsb", Config{Repartition: func(g *graph.Graph, _ []int32, np int) []int32 {
		return rsb.Partition(g, np, rsb.Config{})
	}}},
	{"mlkl", Config{Repartition: func(g *graph.Graph, _ []int32, np int) []int32 {
		return mlkl.Partition(g, np, mlkl.Config{})
	}}},
	{"sfc", Config{Mode: ModeSFC}},
	{"distrefine", Config{DistRefine: true}},
	{"hier", Config{Mode: ModeHier}},
}

// AlgorithmNames lists the registered algorithm names in table order.
func AlgorithmNames() []string {
	names := make([]string, len(algorithms))
	for i, a := range algorithms {
		names[i] = a.name
	}
	return names
}

// ConfigByName returns the configuration that selects the named algorithm;
// the error for an unknown name lists the registered ones.
func ConfigByName(name string) (Config, error) {
	for _, a := range algorithms {
		if a.name == name {
			return a.cfg, nil
		}
	}
	return Config{}, fmt.Errorf("pared: unknown algorithm %q (want %s)", name, strings.Join(AlgorithmNames(), "|"))
}
