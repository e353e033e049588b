package main

// Input generation. Every workload draws its inputs from a math/rand
// source seeded by -seed, so one seed always yields the same op stream,
// and each op carries the answer it must get. Constants carry a salt drawn
// from the seed and the op's sequence number: canonical forms ignore how
// nulls are named, so only distinct constants give distinct fingerprints
// (and real cache misses).

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"strconv"
	"strings"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/server"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// Endpoints an op can target. The first three are the service's; mutate
// writes one fact to the live session and then counts.
const (
	epCount    = "count"
	epClassify = "classify"
	epEstimate = "estimate"
	epMutate   = "mutate"
)

// op is one generated request: the texts the program receives and the
// answer it must give.
type op struct {
	seq      int64
	kind     string // ops of one kind do the same work on inputs of one shape
	endpoint string
	req      server.Request
	fact     string                  // mutate: the fact written before the count
	remove   bool                    // mutate: remove fact instead of adding it
	want     string                  // count: the exact answer
	estMin   int64                   // estimate: the least value the estimator can output
	estMax   int64                   // estimate: the largest
	class    []server.ClassifyResult // classify: the expected rows
}

// stream is a workload's seeded op sequence.
type stream struct {
	seq  int64
	gen  func(seq int64) op
	warm []op   // run once by set-up, before the warm-up ops
	live string // live-mutate: the database the live session starts from
}

func (s *stream) next() op {
	s.seq++
	o := s.gen(s.seq)
	o.seq = s.seq
	return o
}

// newRand returns the workload's random source for seed, so that two
// workloads with one seed still draw different inputs, and a constant
// salt drawn from it.
func newRand(seed int64, workload string) (*rand.Rand, string) {
	h := fnv.New64a()
	h.Write([]byte(workload))
	r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	return r, strconv.FormatUint(uint64(r.Uint32()), 36)
}

// ---- database texts ----

// cycleDB renders a uniform database over {a_tag, b_tag} whose facts
// R(?i, ?j) form a cycle through n nulls plus the given chords (pairs of
// cycle positions). Nulls are numbered from base.
func cycleDB(tag string, base, n int, chords [][2]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "uniform a_%s b_%s\n", tag, tag)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R(?%d, ?%d)\n", base+i, base+(i+1)%n)
	}
	for _, c := range chords {
		fmt.Fprintf(&b, "R(?%d, ?%d)\n", base+c[0], base+c[1])
	}
	return b.String()
}

// coddDB renders a Codd table of n facts R(?, ?) whose first nulls range
// over {x, y, z} and second nulls over {y, z, w}.
func coddDB(tag string, base, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		l, r := base+2*i, base+2*i+1
		fmt.Fprintf(&b, "dom ?%d x_%s y_%s z_%s\ndom ?%d y_%s z_%s w_%s\n", l, tag, tag, tag, r, tag, tag, tag)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R(?%d, ?%d)\n", base+2*i, base+2*i+1)
	}
	return b.String()
}

// dedupDB renders a uniform database over {a_tag, b_tag} of pairs facts
// R(?) and pairs facts S(?) plus one T(?, ?): 2^(2·pairs+2) valuations
// collapse to 36 completions, and the binary T keeps the schema off the
// unary fast path (Theorem 4.6), so #Comp sweeps and deduplicates.
func dedupDB(tag string, base, pairs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "uniform a_%s b_%s\n", tag, tag)
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "R(?%d)\nS(?%d)\n", base+2*i, base+2*i+1)
	}
	fmt.Fprintf(&b, "T(?%d, ?%d)\n", base+2*pairs, base+2*pairs+1)
	return b.String()
}

// joinDB renders pairs ground facts R(a_i, b_i), S(b_i, a_i) plus one
// fact R(?1, ?2) over {a_0, b_0}: the join R(x, y) ∧ S(y, z) holds in
// all four valuations, and planning it scans every ground fact.
func joinDB(tag string, pairs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dom ?1 a%s_0 b%s_0\ndom ?2 a%s_0 b%s_0\n", tag, tag, tag, tag)
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "R(a%s_%d, b%s_%d)\nS(b%s_%d, a%s_%d)\n", tag, i, tag, i, tag, i, tag, i)
	}
	b.WriteString("R(?1, ?2)\n")
	return b.String()
}

// componentsDB renders len(sizes) independent components: component c is
// a cycle of relation Cc through sizes[c] nulls over {a, b, c}. Null IDs
// are a permutation drawn from r.
func componentsDB(r *rand.Rand, sizes []int) string {
	total := 0
	for _, k := range sizes {
		total += k
	}
	ids := r.Perm(total)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "dom ?%d a b c\n", id+1)
	}
	next := 0
	for c, k := range sizes {
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "C%d(?%d, ?%d)\n", c, ids[next+i]+1, ids[next+(i+1)%k]+1)
		}
		next += k
	}
	return b.String()
}

// componentsQuery is C0(x0, x0) ∧ … ∧ C{n-1}(x{n-1}, x{n-1}): it factorizes
// into one independent sub-query per component.
func componentsQuery(n int) string {
	parts := make([]string, n)
	for c := range parts {
		parts[c] = fmt.Sprintf("C%d(x%d, x%d)", c, c, c)
	}
	return strings.Join(parts, " ∧ ")
}

// ---- closed-form references ----

func pow(b, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil) }

// cycleVal is #Val(R(x, x)) on a cycle of n nulls over two constants
// (plus chords keeping it bipartite when n is even): every valuation but
// the two proper 2-colourings has a loop, and an odd cycle has no proper
// 2-colouring.
func cycleVal(n int) *big.Int {
	v := pow(2, int64(n))
	if n%2 == 0 {
		v.Sub(v, big.NewInt(2))
	}
	return v
}

// cycleEstimateRange is the range a Karp–Luby estimate of #Val(R(x, x))
// on a cycle of n nulls over two constants can take, whatever it samples.
// The estimate is Z·mean(1/cnt(ν)) where Z = n·2^(n−1) sums the n
// cylinder sizes and 1 ≤ cnt(ν) ≤ n, so it lies in [Z/n, Z]. A tighter
// check would fail at random: within ε of #Val holds only with
// probability 1 − δ.
func cycleEstimateRange(n int) (lo, hi int64) {
	lo = 1 << (n - 1)
	return lo, int64(n) * lo
}

// coddVal is #Val(R(x, x)) on coddDB: each fact has 9 valuations, 7 of
// them without a loop.
func coddVal(n int) *big.Int { return new(big.Int).Sub(pow(9, int64(n)), pow(7, int64(n))) }

// dedupComp is #Comp(R(x) ∧ S(x)) on dedupDB with at least two pairs: R
// and S each take one of the 3 non-empty subsets of the domain, 7 of the 9
// combinations intersect, and T takes any of 4 values.
const dedupComp = 28

// joinVal is #Val(R(x, y) ∧ S(y, z)) on joinDB.
const joinVal = 4

// componentsVal is #Val(componentsQuery) on componentsDB: a component of
// k nulls has 3^k valuations, of which 2^k + 2(−1)^k are proper
// 3-colourings without a loop. While a ground fact C0(g, g) is present C0
// always has a loop and contributes all 3^k valuations.
func componentsVal(sizes []int, ground bool) *big.Int {
	v := big.NewInt(1)
	for c, k := range sizes {
		f := pow(3, int64(k))
		if c > 0 || !ground {
			f.Sub(f, pow(2, int64(k)))
			if k%2 == 0 {
				f.Sub(f, big.NewInt(2))
			} else {
				f.Add(f, big.NewInt(2))
			}
		}
		v.Mul(v, f)
	}
	return v
}

// bruteCount counts by the serial escape-hatch sweep: one worker, scalar
// membership and the query's own atom order, with every fast path
// bypassed. It is the reference for answers without a closed form.
func bruteCount(dbText, query string, kind classify.CountingKind) (*big.Int, error) {
	db, err := core.ParseDatabaseString(dbText)
	if err != nil {
		return nil, err
	}
	q, err := cq.Parse(query)
	if err != nil {
		return nil, err
	}
	pdb, err := solver.NewSolver().Prepare(db)
	if err != nil {
		return nil, err
	}
	res, err := pdb.BruteCount(context.Background(), q, kind, &count.Options{Workers: 1, DisableBitsets: true, SyntacticOrder: true})
	if err != nil {
		return nil, err
	}
	return res.Count, nil
}

// classifyRows maps a classification onto its wire rows exactly as the
// service does.
func classifyRows(results []classify.Result) []server.ClassifyResult {
	out := make([]server.ClassifyResult, len(results))
	for i, r := range results {
		out[i] = server.ClassifyResult{
			Variant:    r.Variant.String(),
			Complexity: r.Complexity.String(),
			Approx:     r.Approx.String(),
			Reference:  r.Reference,
		}
		if r.HardPattern != nil {
			out[i].HardPattern = r.HardPattern.String()
		}
	}
	return out
}

// ---- workload streams ----

const cycleQuery = "R(x, x)"

// classifyQueries are the queries of serve-cached's classify ops.
var classifyQueries = []string{"R(x, x)", "R(x) ∧ S(x)", "R(x, y) ∧ S(y, z)", "R(x, y) ∧ S(x, z)"}

// cachedStream is serve-cached: count ops over a pool of 256 cycle
// databases (8–12 nulls, each with its own constants) and classify ops
// over four queries. The warm pass counts every pool database once per
// kind, which puts all 512 fingerprints in the result cache.
func cachedStream(seed int64) (*stream, error) {
	r, salt := newRand(seed, "serve-cached")
	compRef := map[int]string{}
	for n := 8; n <= 12; n++ {
		c, err := bruteCount(cycleDB("ref", 1, n, nil), cycleQuery, classify.Completions)
		if err != nil {
			return nil, err
		}
		compRef[n] = c.String()
	}
	classes := make([][]server.ClassifyResult, len(classifyQueries))
	for i, s := range classifyQueries {
		q, err := cq.ParseBCQ(s)
		if err != nil {
			return nil, err
		}
		res, err := classify.ClassifyAll(q)
		if err != nil {
			return nil, err
		}
		classes[i] = classifyRows(res)
	}
	st := &stream{}
	var pool [2][]op
	for i := 0; i < 256; i++ {
		n := 8 + r.Intn(5)
		db := cycleDB(fmt.Sprintf("%s_%d", salt, i), 1+r.Intn(1000), n, nil)
		pool[0] = append(pool[0], op{kind: "count-val", endpoint: epCount, req: server.Request{Database: db, Query: cycleQuery, Kind: server.KindVal}, want: cycleVal(n).String()})
		pool[1] = append(pool[1], op{kind: "count-comp", endpoint: epCount, req: server.Request{Database: db, Query: cycleQuery, Kind: server.KindComp}, want: compRef[n]})
	}
	st.warm = append(append(st.warm, pool[0]...), pool[1]...)
	st.gen = func(int64) op {
		if r.Intn(100) < 80 {
			return pool[r.Intn(2)][r.Intn(256)]
		}
		i := r.Intn(len(classifyQueries))
		return op{kind: "classify", endpoint: epClassify, req: server.Request{Query: classifyQueries[i]}, class: classes[i]}
	}
	return st, nil
}

// coldStream is serve-cold: every request carries a database never seen
// before, one per planner route.
func coldStream(seed int64) (*stream, error) {
	r, salt := newRand(seed, "serve-cold")
	codd := coddVal(32).String()
	cyc := cycleVal(10).String()
	estMin, estMax := cycleEstimateRange(10)
	return &stream{gen: func(seq int64) op {
		tag := fmt.Sprintf("%s_%d", salt, seq)
		base := 1 + r.Intn(1000)
		switch p := r.Intn(100); {
		case p < 25: // Codd table: Theorem 3.7
			return op{kind: "codd", endpoint: epCount, req: server.Request{Database: coddDB(tag, base, 32), Query: cycleQuery, Kind: server.KindVal}, want: codd}
		case p < 45: // #Comp sweep with completion dedup
			return op{kind: "dedup", endpoint: epCount, req: server.Request{Database: dedupDB(tag, base, 5), Query: "R(x) ∧ S(x)", Kind: server.KindComp}, want: strconv.Itoa(dedupComp)}
		case p < 65: // Karp–Luby
			return op{kind: "estimate", endpoint: epEstimate, req: server.Request{Database: cycleDB(tag, base, 10, nil), Query: cycleQuery, Eps: 0.3, Delta: 0.3, Seed: 1 + r.Int63n(1<<30)}, estMin: estMin, estMax: estMax}
		case p < 85: // cylinder inclusion–exclusion
			return op{kind: "cylinder-ie", endpoint: epCount, req: server.Request{Database: cycleDB(tag, base, 10, nil), Query: cycleQuery, Kind: server.KindVal}, want: cyc}
		default: // plan build over 100 ground pairs
			return op{kind: "join", endpoint: epCount, req: server.Request{Database: joinDB(tag, 100), Query: "R(x, y) ∧ S(y, z)", Kind: server.KindVal}, want: strconv.Itoa(joinVal)}
		}
	}}, nil
}

// chords draws k chords of an n-cycle (n even) that each join two
// positions of opposite parity and are neither cycle edges nor repeats, so
// the graph stays bipartite.
func chords(r *rand.Rand, n, k int) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for len(out) < k {
		i := r.Intn(n)
		j := (i + 3 + 2*r.Intn(n/2-2)) % n // odd distance 3..n-3
		c := [2]int{min(i, j), max(i, j)}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// sweepValStream is sweep-val: a 16-cycle plus 3 chords has 19 cylinders,
// one more than the inclusion–exclusion cap of 18, so #Val sweeps all
// 2^16 valuations.
func sweepValStream(seed int64) (*stream, error) {
	r, salt := newRand(seed, "sweep-val")
	want := cycleVal(16).String()
	return &stream{gen: func(seq int64) op {
		db := cycleDB(fmt.Sprintf("%s_%d", salt, seq), 1+r.Intn(1000), 16, chords(r, 16, 3))
		return op{kind: "val-sweep", endpoint: epCount, req: server.Request{Database: db, Query: cycleQuery, Kind: server.KindVal}, want: want}
	}}, nil
}

// sweepCompStream is sweep-comp: 6 R/S pairs and T give 2^14 valuations
// that collapse to 28 satisfying completions. The sweep is small enough
// that a measured window fills the result cache early, so peak memory does
// not depend on how many ops the window fits.
func sweepCompStream(seed int64) (*stream, error) {
	r, salt := newRand(seed, "sweep-comp")
	return &stream{gen: func(seq int64) op {
		db := dedupDB(fmt.Sprintf("%s_%d", salt, seq), 1+r.Intn(1000), 6)
		return op{kind: "comp-sweep", endpoint: epCount, req: server.Request{Database: db, Query: "R(x) ∧ S(x)", Kind: server.KindComp}, want: strconv.Itoa(dedupComp)}
	}}, nil
}

// liveSizes are the component sizes of BenchmarkIncrementalRecount: the
// small component C0 takes the writes, C1…C11 are far heavier to recount.
var liveSizes = []int{4, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}

// liveStream is live-mutate: writes of fresh ground facts C0(g, g)
// alternate between adding the next one and removing the previous one, so
// one is always present and every state is new (no read is a result-cache
// hit); each write is followed by a count of the factorized query.
func liveStream(seed int64) (*stream, error) {
	r, salt := newRand(seed, "live-mutate")
	ground := func(j int64) string { return fmt.Sprintf("C0(g%s_%d, g%s_%d)", salt, j, salt, j) }
	query := componentsQuery(len(liveSizes))
	want := componentsVal(liveSizes, true).String()
	st := &stream{live: componentsDB(r, liveSizes)}
	st.warm = []op{{kind: "write-recount", endpoint: epMutate, fact: ground(0), req: server.Request{Query: query}, want: want}}
	st.gen = func(seq int64) op {
		o := op{kind: "write-recount", endpoint: epMutate, req: server.Request{Query: query}, want: want}
		if seq%2 == 1 {
			o.fact = ground((seq + 1) / 2)
		} else {
			o.fact, o.remove = ground(seq/2-1), true
		}
		return o
	}
	return st, nil
}
