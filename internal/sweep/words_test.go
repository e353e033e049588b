package sweep

import (
	"fmt"
	"math/rand"
	"testing"
)

// Parity tests for the unrolled word helpers of words.go: every helper
// must agree with the obvious straight loop on random words across
// lengths that hit the empty, tail-only, exact-multiple-of-4 and
// unrolled+tail shapes.

func randWords(r *rand.Rand, n int) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		switch r.Intn(4) {
		case 0:
			ws[i] = 0
		case 1:
			ws[i] = ^uint64(0)
		default:
			ws[i] = r.Uint64()
		}
	}
	return ws
}

func TestWordHelpersMatchStraightLoops(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 129}
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			a, b := randWords(r, n), randWords(r, n)

			wantAnd := make([]uint64, n)
			wantAny, wantAndAny := false, false
			wantFirst := -1
			for i := 0; i < n; i++ {
				wantAnd[i] = a[i] & b[i]
				wantAny = wantAny || a[i] != 0
				wantAndAny = wantAndAny || a[i]&b[i] != 0
				for bit := 0; bit < 64 && wantFirst < 0; bit++ {
					if wantAnd[i]&(1<<bit) != 0 {
						wantFirst = i*64 + bit
					}
				}
			}

			dst := append([]uint64(nil), a...)
			andInto(dst, b)
			for i := range dst {
				if dst[i] != wantAnd[i] {
					t.Fatalf("n=%d trial %d: andInto word %d = %#x, want %#x", n, trial, i, dst[i], wantAnd[i])
				}
			}
			got := make([]uint64, n)
			copyAnd(got, a, b)
			for i := range got {
				if got[i] != wantAnd[i] {
					t.Fatalf("n=%d trial %d: copyAnd word %d = %#x, want %#x", n, trial, i, got[i], wantAnd[i])
				}
			}
			if anyNonzero(a) != wantAny {
				t.Fatalf("n=%d trial %d: anyNonzero = %v, want %v", n, trial, anyNonzero(a), wantAny)
			}
			if andAnyNonzero(a, b) != wantAndAny {
				t.Fatalf("n=%d trial %d: andAnyNonzero = %v, want %v", n, trial, andAnyNonzero(a, b), wantAndAny)
			}
			if got := firstAnd(a, b); got != wantFirst {
				t.Fatalf("n=%d trial %d: firstAnd = %d, want %d", n, trial, got, wantFirst)
			}
		}
	}
}

// TestWordHelpersLongerSource: helpers truncate to the destination (or
// first operand) length, so a longer second operand is fine.
func TestWordHelpersLongerSource(t *testing.T) {
	a := []uint64{0xF0, 0x0F}
	b := []uint64{0xFF, 0xFF, 0xFF, 0xFF}
	dst := append([]uint64(nil), a...)
	andInto(dst, b)
	if dst[0] != 0xF0 || dst[1] != 0x0F {
		t.Fatalf("andInto with longer src: %#x", dst)
	}
	if got := firstAnd(a, b); got != 4 {
		t.Fatalf("firstAnd with longer b = %d, want 4", got)
	}
	if !andAnyNonzero(a, b) {
		t.Fatal("andAnyNonzero with longer b = false")
	}
}

// straightAndInto is the un-unrolled alternative to the shipped helper.
func straightAndInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// straightAnyNonzero is the early-exit-per-word alternative.
func straightAnyNonzero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

var sinkBool bool

// BenchmarkWordHelpers pins the unrolled AND-chain helpers — the ones
// evalFlat actually runs — against their straight-loop alternatives.
func BenchmarkWordHelpers(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 64} {
		x, y := randWords(r, n), randWords(r, n)
		zero := make([]uint64, n) // all-zero: the full-scan worst case
		b.Run(fmt.Sprintf("andInto/unrolled/words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				andInto(x, y)
			}
		})
		b.Run(fmt.Sprintf("andInto/straight/words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				straightAndInto(x, y)
			}
		})
		b.Run(fmt.Sprintf("anyNonzero/unrolled/words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = anyNonzero(zero)
			}
		})
		b.Run(fmt.Sprintf("anyNonzero/straight/words=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = straightAnyNonzero(zero)
			}
		})
	}
}
