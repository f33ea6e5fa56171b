package apps

import (
	"math"
	"strings"
	"testing"

	"github.com/rgml/rgml/internal/la"
)

func TestCheckFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		v    la.Vector
		want string // "" for nil, else a substring of the error
	}{
		{nil, ""},
		{la.Vector{0, -1, math.MaxFloat64, math.SmallestNonzeroFloat64}, ""},
		{la.Vector{1, nan, inf}, "element 1 of 3 is NaN"},
		{la.Vector{1, 2, inf}, "element 2 of 3 is +Inf"},
		{la.Vector{-inf}, "element 0 of 1 is -Inf"},
	} {
		err := CheckFinite(tc.v)
		if tc.want == "" {
			if err != nil {
				t.Errorf("CheckFinite(%v) = %v, want nil", tc.v, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckFinite(%v) = %v, want an error naming %q", tc.v, err, tc.want)
		}
	}
}
