package fingerprint

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
)

// benchShapes are the databases the benchmark workloads canonicalize on
// every request (bench/gen.go), rebuilt here so the kernel can be timed
// alone:
//   - sweep-val: a uniform 16-cycle plus 3 chords over two constants;
//   - codd: serve-cold's Codd table of 32 facts over two 3-constant domains;
//   - join: serve-cold's 100 ground pairs plus one fact of two nulls, where
//     rendering the ground facts is the whole cost;
//   - live: live-mutate's 12 cycle components (4 nulls, then 11 of 9) over
//     {a, b, c}, numbered by a random permutation.
func benchShapes() []struct{ name, text string } {
	var cyc strings.Builder
	cyc.WriteString("uniform a_t b_t\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&cyc, "R(?%d, ?%d)\n", 500+i, 500+(i+1)%16)
	}
	for _, c := range [][2]int{{0, 5}, {3, 10}, {7, 12}} {
		fmt.Fprintf(&cyc, "R(?%d, ?%d)\n", 500+c[0], 500+c[1])
	}

	var codd strings.Builder
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&codd, "dom ?%d x_t y_t z_t\ndom ?%d y_t z_t w_t\n", 40+2*i, 41+2*i)
	}
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&codd, "R(?%d, ?%d)\n", 40+2*i, 41+2*i)
	}

	var join strings.Builder
	join.WriteString("dom ?1 at_0 bt_0\ndom ?2 at_0 bt_0\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&join, "R(at_%d, bt_%d)\nS(bt_%d, at_%d)\n", i, i, i, i)
	}
	join.WriteString("R(?1, ?2)\n")

	sizes := []int{4, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	total := 0
	for _, k := range sizes {
		total += k
	}
	ids := rand.New(rand.NewSource(1)).Perm(total)
	var live strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&live, "dom ?%d a b c\n", id+1)
	}
	next := 0
	for c, k := range sizes {
		for i := 0; i < k; i++ {
			fmt.Fprintf(&live, "C%d(?%d, ?%d)\n", c, ids[next+i]+1, ids[next+(i+1)%k]+1)
		}
		next += k
	}

	return []struct{ name, text string }{
		{"sweep-val", cyc.String()},
		{"codd", codd.String()},
		{"join", join.String()},
		{"live", live.String()},
	}
}

var (
	benchSink  string
	digestSink Digest
)

// BenchmarkCanonicalDatabase times fingerprint.Database on each workload
// shape. Run it with -benchmem. The "ref" entry times the benchmark's
// reference kernel (bench/refclock.go: 10000 updates of a 256-key hash
// map) in the same process, so runs on a host whose speed drifts can be
// compared as ratios to it.
func BenchmarkCanonicalDatabase(b *testing.B) {
	for _, s := range benchShapes() {
		db, err := core.ParseDatabaseString(s.text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("shape="+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Database(db)
			}
		})
	}
	b.Run("ref", func(b *testing.B) {
		m := make(map[uint64]uint64, 256)
		for i := 0; i < b.N; i++ {
			x := uint64(88172645463325252)
			clear(m)
			for range 10000 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				m[x&255] += x
			}
		}
		benchSink = fmt.Sprint(len(m))
	})
}

// BenchmarkDatabaseDigest times DatabaseDigest, what Prepare and Of
// compute, on the shapes of BenchmarkCanonicalDatabase.
func BenchmarkDatabaseDigest(b *testing.B) {
	for _, s := range benchShapes() {
		db, err := core.ParseDatabaseString(s.text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("shape="+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				digestSink = DatabaseDigest(db)
			}
		})
	}
}
