package apps

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
)

// FinalIterate returns an application's converged state: the model
// weights of LinReg and LogReg, PageRank's rank vector, and GNMF's
// factors W then H, flattened.
func FinalIterate(app core.IterativeApp) (la.Vector, error) {
	switch a := app.(type) {
	case *LinReg:
		return a.Weights()
	case *LogReg:
		return a.Weights()
	case *PageRank:
		return a.Ranks()
	case *GNMF:
		w, h, err := a.Factors()
		if err != nil {
			return nil, err
		}
		return append(append(la.Vector(nil), w.Data...), h.Data...), nil
	}
	return nil, fmt.Errorf("apps: no final iterate for %T", app)
}

// CheckFinite returns an error naming the first NaN or ±Inf element of v,
// or nil when every element is finite. A diverged run's iterate must fail
// verification, not match another diverged iterate.
func CheckFinite(v la.Vector) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("apps: final iterate element %d of %d is %v", i, len(v), x)
		}
	}
	return nil
}

// IterateHash is the FNV-1a hash of v's float64 bit patterns, in hex: two
// iterates hash equal exactly when they are bitwise equal (up to
// collisions). The benchmark hashes its verified iterates the same way.
func IterateHash(v la.Vector) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for k := range b {
			b[k] = byte(bits >> (8 * k))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
