package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided on %d/100 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed int64, n int) bool {
		if n < 0 {
			n = -n
		}
		n = n%1000 + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if NewRNG(1).Intn(0) != 0 || NewRNG(1).Intn(-5) != 0 {
		t.Fatal("Intn(n<=0) != 0")
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestRNGBernoulliMean(t *testing.T) {
	r := NewRNG(11)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	mean := float64(hits) / n
	if math.Abs(mean-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) mean = %v, want ~0.3", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(9)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(4)
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.15 {
		t.Fatalf("Exponential(4) mean = %v, want ~4", mean)
	}
	if r.Exponential(0) != 0 || r.Exponential(-1) != 0 {
		t.Fatal("Exponential(mean<=0) != 0")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	if got := r.Uniform(5, 2); got != 5 {
		t.Fatalf("Uniform with hi<=lo = %v, want lo", got)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := NewRNG(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(21)
	child := parent.Fork()
	// The child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork stream matched parent on %d/100 draws", same)
	}
}

// TestNewStreamKeyedSubstreams: streams are deterministic functions of
// (seed, index) and distinct streams diverge immediately.
func TestNewStreamKeyedSubstreams(t *testing.T) {
	a1, a2 := NewStream(42, 3), NewStream(42, 3)
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("same (seed, stream) produced different values")
		}
	}
	b, c := NewStream(42, 0), NewStream(42, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent streams collided on %d of 100 draws", same)
	}
	d, e := NewStream(1, 7), NewStream(2, 7)
	if d.Uint64() == e.Uint64() {
		t.Fatal("different seeds produced the same stream")
	}
}
