package skeleton

// Canonical content-keyed serialization: a deterministic byte encoding, an
// FNV-64a content key stored inside the file and verified on read (so
// corruption and hand edits fail loudly), and temp-file + rename writes.
// Identical runs — across engines, worker counts and hosts — produce
// byte-identical files, which makes skeletons cacheable (key-addressed) and
// diffable (line-oriented ops).
//
// Each op serializes to one compact string: the kind name followed by
// key=value tokens in a fixed order, with zero/absent fields omitted under a
// single deterministic rule. Floats use the shortest round-tripping
// representation, so decode(encode(s)) == s exactly.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"

	"fxpar/internal/fsatomic"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// FormatVersion identifies the skeleton file schema.
const FormatVersion = 1

// skelFile is the JSON schema of a serialized skeleton.
type skelFile struct {
	Format int    `json:"format"`
	Key    string `json:"key"`
	P      int    `json:"p"`
	// Cost is the recorded cost model; float64 fields round-trip exactly
	// through encoding/json's shortest-representation formatting.
	Cost     sim.CostModel `json:"cost"`
	Chaos    string        `json:"chaos,omitempty"`
	Makespan float64       `json:"makespan"`
	Ops      int           `json:"ops"`
	Labels   []string      `json:"labels"`
	Procs    [][]string    `json:"procs"`
}

// ftoa formats a float with the shortest representation that parses back to
// the identical bits.
func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatOp renders one op as its canonical token string.
func formatOp(op Op) string {
	var b strings.Builder
	b.WriteString(op.Kind.String())
	if op.Dur != 0 {
		b.WriteString(" d=")
		b.WriteString(ftoa(op.Dur))
	}
	if op.Peer >= 0 {
		b.WriteString(" p=")
		b.WriteString(strconv.Itoa(op.Peer))
	}
	if op.Bytes != 0 {
		b.WriteString(" b=")
		b.WriteString(strconv.Itoa(op.Bytes))
	}
	if op.PairSeq != 0 {
		b.WriteString(" q=")
		b.WriteString(strconv.FormatInt(op.PairSeq, 10))
	}
	if op.Wire != 0 {
		b.WriteString(" w=")
		b.WriteString(ftoa(op.Wire))
	}
	if op.Label >= 0 {
		b.WriteString(" l=")
		b.WriteString(strconv.Itoa(op.Label))
	}
	if op.Depth != 0 {
		b.WriteString(" e=")
		b.WriteString(strconv.Itoa(op.Depth))
	}
	if op.Span >= 0 {
		b.WriteString(" s=")
		b.WriteString(strconv.Itoa(op.Span))
	}
	return b.String()
}

// kindByName maps EventKind.String() names back to the kinds an Op can have
// (never EvWait: waits are re-derived, not stored).
var kindByName = func() map[string]machine.EventKind {
	m := map[string]machine.EventKind{}
	for _, k := range []machine.EventKind{
		machine.EvCompute, machine.EvSend, machine.EvIO,
		machine.EvRecv, machine.EvSpanBegin, machine.EvSpanEnd,
		machine.EvFault, machine.EvRetry,
	} {
		m[k.String()] = k
	}
	return m
}()

// parseOp parses a canonical op token string.
func parseOp(s string) (Op, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("skeleton: empty op")
	}
	kind, ok := kindByName[fields[0]]
	if !ok {
		return Op{}, fmt.Errorf("skeleton: unknown op kind %q", fields[0])
	}
	op := Op{Kind: kind, Peer: -1, Label: -1, Span: -1}
	for _, tok := range fields[1:] {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Op{}, fmt.Errorf("skeleton: malformed op token %q", tok)
		}
		var err error
		switch key {
		case "d":
			op.Dur, err = strconv.ParseFloat(val, 64)
		case "p":
			op.Peer, err = strconv.Atoi(val)
		case "b":
			op.Bytes, err = strconv.Atoi(val)
		case "q":
			op.PairSeq, err = strconv.ParseInt(val, 10, 64)
		case "w":
			op.Wire, err = strconv.ParseFloat(val, 64)
		case "l":
			op.Label, err = strconv.Atoi(val)
		case "e":
			op.Depth, err = strconv.Atoi(val)
		case "s":
			op.Span, err = strconv.Atoi(val)
		default:
			return Op{}, fmt.Errorf("skeleton: unknown op field %q", key)
		}
		if err != nil {
			return Op{}, fmt.Errorf("skeleton: bad op token %q: %v", tok, err)
		}
	}
	// No capture records a negative or non-finite time; replaying one would
	// yield a NaN or infinite makespan.
	if !(op.Dur >= 0 && op.Dur <= math.MaxFloat64 && op.Wire >= 0 && op.Wire <= math.MaxFloat64) {
		return Op{}, fmt.Errorf("skeleton: op %q has a negative or non-finite time", s)
	}
	return op, nil
}

// encode marshals the skeleton with the given content key ("" while
// computing the key itself).
func (s *Skeleton) encode(key string) ([]byte, error) {
	f := skelFile{
		Format: FormatVersion, Key: key, P: s.P, Cost: s.Cost, Chaos: s.Chaos,
		Makespan: s.Makespan, Ops: s.Ops(), Labels: s.Labels,
		Procs: make([][]string, len(s.Procs)),
	}
	if f.Labels == nil {
		f.Labels = []string{}
	}
	for i, ops := range s.Procs {
		rows := make([]string, len(ops))
		for j, op := range ops {
			rows[j] = formatOp(op)
		}
		f.Procs[i] = rows
	}
	out, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Key returns the skeleton's content key, "fxskel-" plus the FNV-64a hash of
// the canonical encoding. Identical runs have identical keys.
func (s *Skeleton) Key() (string, error) {
	raw, err := s.encode("")
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("fxskel-%016x", h.Sum64()), nil
}

// Encode returns the canonical serialized form, content key included.
func (s *Skeleton) Encode() ([]byte, error) {
	key, err := s.Key()
	if err != nil {
		return nil, err
	}
	return s.encode(key)
}

// Decode parses a serialized skeleton and verifies its content key.
func Decode(data []byte) (*Skeleton, error) {
	var f skelFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("skeleton: decode: %v", err)
	}
	if f.Format != FormatVersion {
		return nil, fmt.Errorf("skeleton: unsupported format %d (want %d)", f.Format, FormatVersion)
	}
	s := &Skeleton{
		P: f.P, Cost: f.Cost, Chaos: f.Chaos, Makespan: f.Makespan,
		Labels: f.Labels, Procs: make([][]Op, len(f.Procs)),
	}
	for i, rows := range f.Procs {
		ops := make([]Op, len(rows))
		for j, row := range rows {
			op, err := parseOp(row)
			if err != nil {
				return nil, err
			}
			if op.Label >= len(s.Labels) || op.Span >= len(s.Labels) {
				return nil, fmt.Errorf("skeleton: op references label out of range: %q", row)
			}
			ops[j] = op
		}
		s.Procs[i] = ops
	}
	key, err := s.Key()
	if err != nil {
		return nil, err
	}
	if key != f.Key {
		return nil, fmt.Errorf("skeleton: content key mismatch (file says %s, content hashes to %s): corrupted or hand-edited", f.Key, key)
	}
	return s, nil
}

// WriteFile writes the canonical encoding to path via a temp file created
// in path's own directory + rename (fsatomic), so a crashed writer never
// leaves a torn skeleton behind and concurrent writers stay atomic.
func (s *Skeleton) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, data)
}

// ReadFile reads and verifies a serialized skeleton.
func ReadFile(path string) (*Skeleton, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
