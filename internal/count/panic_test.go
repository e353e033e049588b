package count

import (
	"strings"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// TestSweepRangePanicIsAnError: an opaque query that panics in a sweep
// range's goroutine fails the count with an error naming the panic
// value, serially and on two workers, instead of crashing the process.
func TestSweepRangePanicIsAnError(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for n := core.NullID(1); n <= 10; n++ {
		db.MustAddFact("R", core.Null(n), core.Null(n%10+1))
	}
	q := &cq.Func{Name: "panics", F: func(inst *core.Instance) bool {
		if inst.Size() > 0 {
			panic("opaque query failed")
		}
		return false
	}}
	for _, workers := range []int{1, 2} {
		n, _, err := CountValuations(db, q, &Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "panicked: opaque query failed") {
			t.Fatalf("workers=%d: count %v, error %v; want the panic as an error", workers, n, err)
		}
	}
}
