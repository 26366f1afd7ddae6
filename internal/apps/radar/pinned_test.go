package radar

import (
	"fmt"
	"testing"

	"fxpar/internal/mapping"
)

// TestPinnedKept pins the absolute detection count of every data set at the
// paper's and the quick Table 1 sizes. The other value tests compare
// mappings with each other; these literals catch a kernel change that moves
// every mapping alike.
func TestPinnedKept(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []int
	}{
		{"paper", DefaultConfig(), []int{40, 40, 40, 40, 40, 40, 40, 40}},
		{"quick", Config{Gates: 64, Rows: 8, Sets: 8, Scale: 1.0 / 64, Threshold: 0.05}, []int{8, 8, 8, 8, 8, 8, 8, 8}},
	} {
		res := run(t, 8, tc.cfg, mapping.DataParallel(8))
		got := make([]int, tc.cfg.Sets)
		for set := range got {
			got[set] = res.Kept[set]
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: kept %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
