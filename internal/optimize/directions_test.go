package optimize

import (
	"math"
	"sync"
	"testing"

	"fepia/internal/stats"
	"fepia/internal/vecmath"
)

// freshDirections is the multistart of MinNormToLevelSet before its
// directions were memoised: a generator seeded per solve draws unit
// directions until the gradient's two and the random ones make
// restarts+2.
func freshDirections(seed int64, n, restarts int, gradDirs int) [][]float64 {
	rng := stats.NewRNG(seed)
	var dirs [][]float64
	for len(dirs)+gradDirs < restarts+2 {
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		if _, norm := vecmath.Normalize(d, d); norm > 0 {
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// TestRestartDirectionsMatchFreshDraw holds the memoised directions to
// the per-solve draw bit for bit, with the gradient's two directions and
// without them, on a cold table and a warm one.
func TestRestartDirectionsMatchFreshDraw(t *testing.T) {
	ForgetRestartDirections()
	defer ForgetRestartDirections()
	for pass := 0; pass < 2; pass++ {
		for _, seed := range []int64{1, 7, -3} {
			for _, n := range []int{1, 2, 12, 16, 40} {
				for _, restarts := range []int{0, 1, 8} {
					for _, gradDirs := range []int{0, 2} {
						want := freshDirections(seed, n, restarts, gradDirs)
						got := restartDirections(seed, n, restarts)[:len(want)]
						for k := range want {
							for i := range want[k] {
								if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
									t.Fatalf("pass %d seed %d n %d restarts %d: direction %d differs at %d", pass, seed, n, restarts, k, i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRestartDirectionsTableBounded sends more keys than the table holds
// and one too large to keep: the table stays within both caps, and every
// key still gets its directions.
func TestRestartDirectionsTableBounded(t *testing.T) {
	ForgetRestartDirections()
	defer ForgetRestartDirections()
	for n := 1; n <= 3*maxDirSets; n++ {
		if dirs := restartDirections(1, n, 8); len(dirs) != 10 || len(dirs[0]) != n {
			t.Fatalf("n %d: %d directions of %d coordinates", n, len(dirs), len(dirs[0]))
		}
	}
	big := maxDirFloats/10 + 1
	if dirs := restartDirections(1, big, 8); len(dirs) != 10 {
		t.Fatalf("n %d: %d directions", big, len(dirs))
	}
	table := *dirMemo.Load()
	if len(table) > maxDirSets {
		t.Fatalf("table holds %d sets, cap %d", len(table), maxDirSets)
	}
	for k := range table {
		if k.n*(k.restarts+2) > maxDirFloats {
			t.Fatalf("table keeps %+v, past %d coordinates", k, maxDirFloats)
		}
	}
}

// TestRestartDirectionsConcurrent races solves of overlapping keys on a
// cold table: each gets the per-solve draw, and the table ends holding
// every key once. Run it under -race.
func TestRestartDirectionsConcurrent(t *testing.T) {
	ForgetRestartDirections()
	defer ForgetRestartDirections()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := 1 + (g+i)%12
				want := freshDirections(1, n, 8, 0)
				got := restartDirections(1, n, 8)
				for k := range want {
					for j := range want[k] {
						if got[k][j] != want[k][j] {
							t.Errorf("n %d: direction %d differs at %d", n, k, j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(*dirMemo.Load()); got != 12 {
		t.Fatalf("table holds %d sets, want 12", got)
	}
}
