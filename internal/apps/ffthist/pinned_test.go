package ffthist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"fxpar/internal/mapping"
)

// TestPinnedHistograms pins an FNV-64a of every data set's histogram at the
// paper's and the quick Table 1 sizes. The other value tests compare
// mappings with each other; these literals catch a kernel change that moves
// every mapping alike.
func TestPinnedHistograms(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []uint64
	}{
		{"paper", DefaultConfig(), []uint64{
			0x8e64d67f07b493c7, 0x6165fbae0a8bfffd, 0x9efabef6b28fc6f5, 0xf842f9ac1628885a,
			0x32573f43a4f2c16f, 0x17b04dce064d9d9c, 0x9ad56f012513936e, 0x5f1ce6041d7cb23b}},
		{"quick", Config{N: 32, Sets: 8, Bins: 64}, []uint64{
			0x822072f145765df1, 0x109a6f9f3ac8698d, 0x1d2df7ff6849dfe1, 0x3c32c7cfefd27f47,
			0x7c8145599d8a4a6f, 0xeb6724626eb801c5, 0xb96f1272c14f4fdb, 0xe8e7fcdeb1c6d37d}},
	} {
		res := run(t, 8, tc.cfg, mapping.DataParallel(8))
		got := make([]uint64, tc.cfg.Sets)
		for set := range got {
			h := fnv.New64a()
			for _, c := range res.Hists[set] {
				binary.Write(h, binary.LittleEndian, c)
			}
			got[set] = h.Sum64()
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: histogram hashes %#v, want %#v", tc.name, got, tc.want)
		}
	}
}
