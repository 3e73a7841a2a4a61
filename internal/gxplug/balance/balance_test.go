package balance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMakespan(t *testing.T) {
	got, err := Makespan([]float64{100, 50}, []float64{0.01, 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*time.Second { // max(1s, 2s)
		t.Fatalf("makespan %v, want 2s", got)
	}
}

func TestMakespanErrors(t *testing.T) {
	if _, err := Makespan([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Makespan(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Makespan([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero coefficient accepted")
	}
	if _, err := Makespan([]float64{-1}, []float64{1}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestOptimalPartitionLemma2(t *testing.T) {
	// Two nodes, node 1 four times faster: it should get 4/5 of the data.
	c := []float64{0.04, 0.01}
	d, min, err := OptimalPartition(1000, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-200) > 1e-9 || math.Abs(d[1]-800) > 1e-9 {
		t.Fatalf("split %v, want [200 800]", d)
	}
	// All nodes finish simultaneously at the optimum.
	t0 := c[0] * d[0]
	t1 := c[1] * d[1]
	if math.Abs(t0-t1) > 1e-9 {
		t.Fatalf("nodes finish at %v and %v, want equal", t0, t1)
	}
	if got := time.Duration(t0 * float64(time.Second)); (got - min).Abs() > time.Microsecond {
		t.Fatalf("reported min %v != achieved %v", min, got)
	}
}

func TestOptimalPartitionErrors(t *testing.T) {
	if _, _, err := OptimalPartition(-1, []float64{1}); err == nil {
		t.Fatal("negative D accepted")
	}
	if _, _, err := OptimalPartition(1, nil); err == nil {
		t.Fatal("no nodes accepted")
	}
	if _, _, err := OptimalPartition(1, []float64{1, -2}); err == nil {
		t.Fatal("negative coefficient accepted")
	}
}

// Lemma 2 property: the closed-form split beats (or ties) random feasible
// splits of the same total.
func TestLemma2OptimalQuick(t *testing.T) {
	f := func(rc [4]uint16, perturb [4]uint16) bool {
		c := make([]float64, 4)
		for j := range c {
			c[j] = float64(rc[j]%500+1) * 1e-4
		}
		const D = 10_000
		dOpt, min, err := OptimalPartition(D, c)
		if err != nil {
			return false
		}
		// Perturbed split: move mass between nodes, keep the total.
		d := append([]float64(nil), dOpt...)
		from := int(perturb[0]) % 4
		to := int(perturb[1]) % 4
		amount := float64(perturb[2]%1000) / 1000 * d[from]
		d[from] -= amount
		d[to] += amount
		got, err := Makespan(d, c)
		if err != nil {
			return false
		}
		return got >= min-time.Microsecond
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

func TestOptimalCapacitiesLemma3(t *testing.T) {
	d := []float64{100, 400}
	f := 2000.0 // entities/second
	inv, min, err := OptimalCapacities(d, f)
	if err != nil {
		t.Fatal(err)
	}
	// The largest partition gets the full capacity f; the smaller gets
	// proportionally less.
	if inv[1] != f {
		t.Fatalf("largest partition capacity %v, want f=%v", inv[1], f)
	}
	if math.Abs(inv[0]-f*100/400) > 1e-9 {
		t.Fatalf("capacity[0]=%v, want %v", inv[0], f/4)
	}
	// Both nodes finish at d*/f.
	want := time.Duration(400 / f * float64(time.Second))
	if (min - want).Abs() > time.Microsecond {
		t.Fatalf("min %v, want %v", min, want)
	}
	t0 := d[0] / inv[0]
	t1 := d[1] / inv[1]
	if math.Abs(t0-t1) > 1e-9 {
		t.Fatal("nodes do not finish simultaneously at the optimum")
	}
}

func TestOptimalCapacitiesEdge(t *testing.T) {
	if _, _, err := OptimalCapacities(nil, 1); err == nil {
		t.Fatal("no nodes accepted")
	}
	if _, _, err := OptimalCapacities([]float64{1}, 0); err == nil {
		t.Fatal("f=0 accepted")
	}
	inv, min, err := OptimalCapacities([]float64{0, 0}, 5)
	if err != nil || min != 0 {
		t.Fatalf("all-zero partitions: inv=%v min=%v err=%v", inv, min, err)
	}
}

// Lemma 3 property: no feasible capacity assignment (all 1/c_j <= f) can
// beat d*/f.
func TestLemma3LowerBoundQuick(t *testing.T) {
	f := func(rd [3]uint16, rinv [3]uint16) bool {
		d := make([]float64, 3)
		var dmax float64
		for j := range d {
			d[j] = float64(rd[j]%1000 + 1)
			if d[j] > dmax {
				dmax = d[j]
			}
		}
		const fCap = 100.0
		_, min, err := OptimalCapacities(d, fCap)
		if err != nil {
			return false
		}
		// Any feasible assignment.
		var worst float64
		for j := range d {
			inv := float64(rinv[j]%100+1) / 100 * fCap // (0, fCap]
			if t := d[j] / inv; t > worst {
				worst = t
			}
		}
		return time.Duration(worst*float64(time.Second)) >= min-time.Microsecond
	}
	seed := time.Now().UnixNano()
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	fr, err := Fractions([]float64{0.5, 0.25, 0.125})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum %v", sum)
	}
	// Faster node (smaller c) gets a larger fraction.
	if !(fr[2] > fr[1] && fr[1] > fr[0]) {
		t.Fatalf("fractions not ordered by speed: %v", fr)
	}
}

func TestDaemonsForCapacity(t *testing.T) {
	n, err := DaemonsForCapacity([]float64{250, 1000, 0}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if n[0] != 1 || n[1] != 2 || n[2] != 0 {
		t.Fatalf("daemon counts %v, want [1 2 0]", n)
	}
	if _, err := DaemonsForCapacity([]float64{1}, 0); err == nil {
		t.Fatal("unit 0 accepted")
	}
	if _, err := DaemonsForCapacity([]float64{-1}, 1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}
