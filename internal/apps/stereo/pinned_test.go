package stereo

import (
	"fmt"
	"testing"

	"fxpar/internal/mapping"
)

// TestPinnedDepthSums pins the absolute depth checksum of every data set at
// the paper's and the quick Table 1 sizes. The other value tests compare
// mappings with each other; these literals catch a kernel change that moves
// every mapping alike.
func TestPinnedDepthSums(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []int64
	}{
		{"paper", DefaultConfig(), []int64{447241, 449315, 450492, 448753, 448587, 460738, 449914, 459802}},
		{"quick", Config{W: 64, H: 24, Disparities: 8, Window: 2, Sets: 8}, []int64{2262, 3843, 5367, 6885, 8388, 3696, 5111, 6542}},
	} {
		res := run(t, 8, tc.cfg, mapping.DataParallel(8))
		got := make([]int64, tc.cfg.Sets)
		for set := range got {
			got[set] = res.DepthSum[set]
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: depth sums %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
