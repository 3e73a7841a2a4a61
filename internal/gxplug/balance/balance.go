// Package balance implements the beyond-iteration workload balancing of
// §III-C: the estimation model T_total = c_j · d_j, Lemma 2 (optimal data
// partitioning under fixed accelerator configurations) and Lemma 3
// (optimal accelerator capacity under fixed partitions).
package balance

import (
	"fmt"
	"time"
)

// OptimalPartition implements Lemma 2: given total data D and per-node
// cost coefficients c_j (seconds per entity), the makespan-minimizing
// split is d_j = (1/c_j) / Σ(1/c_k) · D, achieving G = D / Σ(1/c_j).
func OptimalPartition(D float64, c []float64) (d []float64, min time.Duration, err error) {
	if D < 0 || len(c) == 0 {
		return nil, 0, fmt.Errorf("balance: D=%v with %d nodes", D, len(c))
	}
	var invSum float64
	for j, cj := range c {
		if cj <= 0 {
			return nil, 0, fmt.Errorf("balance: node %d coefficient %v", j, cj)
		}
		invSum += 1 / cj
	}
	d = make([]float64, len(c))
	for j, cj := range c {
		d[j] = (1 / cj) / invSum * D
	}
	return d, time.Duration(D / invSum * float64(time.Second)), nil
}

// OptimalCapacities implements Lemma 3: given fixed partition sizes d_j
// and a maximum available computation capacity factor f (entities per
// second; f >= max_j 1/c_j must hold for f to be reachable), the
// makespan-minimizing capacity assignment is 1/c_j = f · d_j / d*, where
// d* = max_j d_j, achieving G' = d*/f. It returns the capacity factors
// (1/c_j) and the optimal makespan.
func OptimalCapacities(d []float64, f float64) (inv []float64, min time.Duration, err error) {
	if len(d) == 0 || f <= 0 {
		return nil, 0, fmt.Errorf("balance: %d nodes, f=%v", len(d), f)
	}
	var dmax float64
	for j, dj := range d {
		if dj < 0 {
			return nil, 0, fmt.Errorf("balance: node %d size %v", j, dj)
		}
		if dj > dmax {
			dmax = dj
		}
	}
	if dmax == 0 {
		return make([]float64, len(d)), 0, nil
	}
	inv = make([]float64, len(d))
	for j, dj := range d {
		inv[j] = f * dj / dmax
	}
	return inv, time.Duration(dmax / f * float64(time.Second)), nil
}

// Fractions converts Lemma 2's optimal sizes into partition fractions
// suitable for graph.PartitionBySizes.
func Fractions(c []float64) ([]float64, error) {
	d, _, err := OptimalPartition(1, c)
	return d, err
}

// DaemonsForCapacity translates a Lemma 3 capacity factor into a daemon
// count: how many accelerators of per-unit capacity `unit` (entities per
// second each) node j needs to reach inv[j]. This is the "dynamically
// allocate idle accelerators to generate more daemons" step of §III-C3.
func DaemonsForCapacity(inv []float64, unit float64) ([]int, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("balance: unit capacity %v", unit)
	}
	out := make([]int, len(inv))
	for j, v := range inv {
		if v < 0 {
			return nil, fmt.Errorf("balance: node %d capacity %v", j, v)
		}
		n := int((v + unit - 1e-9) / unit) // ceil with float slack
		if n < 1 && v > 0 {
			n = 1
		}
		out[j] = n
	}
	return out, nil
}
