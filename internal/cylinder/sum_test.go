package cylinder

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestSumMatchesBigInt: the signed running total spills into its big.Int
// instead of wrapping, whether one addend or the running word overflows.
func TestSumMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s sum
	want := new(big.Int)
	for i := 0; i < 10000; i++ {
		var x uint64
		switch r.Intn(3) {
		case 0:
			x = uint64(r.Int63n(1 << 20))
		case 1:
			x = math.MaxInt64 - uint64(r.Int63n(1<<20))
		default:
			x = r.Uint64()
		}
		neg := r.Intn(2) == 0
		s.add(neg, x)
		if neg {
			want.Sub(want, new(big.Int).SetUint64(x))
		} else {
			want.Add(want, new(big.Int).SetUint64(x))
		}
		if got := s.int(); got.Cmp(want) != 0 {
			t.Fatalf("after %d adds: sum %v, want %v", i+1, got, want)
		}
	}
}
