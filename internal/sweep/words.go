package sweep

import "math/bits"

// Word-level helpers shared by every bitset chain: AND and any-bit loops
// over []uint64 bitmap words. The hot forms are 4-word-unrolled —
// removing the per-word bounds check + loop-carried dependency keeps
// four independent ALU chains in flight, measured ~2× at 16–64 words;
// BenchmarkWordHelpers pins that choice against the straight loops.
// firstAnd runs only after a chain has already hit (to name the witness
// fact of a satisfied match), so it stays a straight early-exit loop.

// andInto sets dst[i] &= src[i] for every word. len(src) must be at
// least len(dst).
func andInto(dst, src []uint64) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] &= src[i]
		dst[i+1] &= src[i+1]
		dst[i+2] &= src[i+2]
		dst[i+3] &= src[i+3]
	}
	for ; i < n; i++ {
		dst[i] &= src[i]
	}
}

// copyAnd sets dst[i] = a[i] & b[i] for every word. a and b must be at
// least len(dst) long.
func copyAnd(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] & b[i]
		dst[i+1] = a[i+1] & b[i+1]
		dst[i+2] = a[i+2] & b[i+2]
		dst[i+3] = a[i+3] & b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] & b[i]
	}
}

// anyNonzero reports whether some word is non-zero. The unrolled body
// ORs four words before testing, trading one early exit per word for a
// quarter of the branches.
func anyNonzero(ws []uint64) bool {
	n := len(ws)
	i := 0
	for ; i+4 <= n; i += 4 {
		if ws[i]|ws[i+1]|ws[i+2]|ws[i+3] != 0 {
			return true
		}
	}
	for ; i < n; i++ {
		if ws[i] != 0 {
			return true
		}
	}
	return false
}

// andAnyNonzero reports whether (a & b) has a set bit, without
// materializing the intersection.
func andAnyNonzero(a, b []uint64) bool {
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		if a[i]&b[i]|a[i+1]&b[i+1]|a[i+2]&b[i+2]|a[i+3]&b[i+3] != 0 {
			return true
		}
	}
	for ; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// firstAnd returns the index of the lowest set bit of a & b, or -1 when
// the intersection is empty. len(b) must be at least len(a).
func firstAnd(a, b []uint64) int {
	b = b[:len(a)]
	for i, w := range a {
		if m := w & b[i]; m != 0 {
			return i<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}
