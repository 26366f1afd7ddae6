package skeleton

// Canonical content-keyed serialization: a deterministic byte encoding, an
// FNV-64a content key stored inside the file and verified on read (so
// corruption and hand edits fail loudly), and temp-file + rename writes.
// Identical runs — across engines, worker counts and hosts — produce
// byte-identical files, which makes skeletons cacheable (key-addressed) and
// diffable (line-oriented ops).
//
// The header is encoding/json; "procs" follows, one op row per line, written
// and parsed here: the kind name, then key=value tokens in a fixed order with
// zero/absent fields omitted and floats in shortest round-tripping form, so
// decode(encode(s)) == s exactly. Decode accepts only the bytes Encode writes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"

	"fxpar/internal/fsatomic"
	"fxpar/internal/machine"
	"fxpar/internal/sim"
)

// FormatVersion identifies the skeleton file schema.
const FormatVersion = 1

// header is the JSON head of a skeleton file; the op rows follow it.
type header struct {
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
}

// appendOp appends op's canonical row.
func appendOp(b []byte, op Op) []byte {
	b = append(b, op.Kind.String()...)
	if op.Dur != 0 {
		b = strconv.AppendFloat(append(b, " d="...), op.Dur, 'g', -1, 64)
	}
	if op.Peer >= 0 {
		b = strconv.AppendInt(append(b, " p="...), int64(op.Peer), 10)
	}
	if op.Bytes != 0 {
		b = strconv.AppendInt(append(b, " b="...), int64(op.Bytes), 10)
	}
	if op.PairSeq != 0 {
		b = strconv.AppendInt(append(b, " q="...), op.PairSeq, 10)
	}
	if op.Wire != 0 {
		b = strconv.AppendFloat(append(b, " w="...), op.Wire, 'g', -1, 64)
	}
	if op.Label >= 0 {
		b = strconv.AppendInt(append(b, " l="...), int64(op.Label), 10)
	}
	if op.Depth != 0 {
		b = strconv.AppendInt(append(b, " e="...), int64(op.Depth), 10)
	}
	if op.Span >= 0 {
		b = strconv.AppendInt(append(b, " s="...), int64(op.Span), 10)
	}
	return b
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

// parseOp parses one op row.
func parseOp(row []byte) (Op, error) {
	name, rest, _ := bytes.Cut(row, []byte(" "))
	kind, ok := kindByName[string(name)]
	if !ok {
		return Op{}, fmt.Errorf("skeleton: unknown op kind %q", name)
	}
	op := Op{Kind: kind, Peer: -1, Label: -1, Span: -1}
	for len(rest) > 0 {
		var tok []byte
		tok, rest, _ = bytes.Cut(rest, []byte(" "))
		if len(tok) < 2 || tok[1] != '=' {
			return Op{}, fmt.Errorf("skeleton: malformed op token %q", tok)
		}
		val := string(tok[2:])
		var err error
		switch tok[0] {
		case 'd':
			op.Dur, err = strconv.ParseFloat(val, 64)
		case 'p':
			op.Peer, err = strconv.Atoi(val)
		case 'b':
			op.Bytes, err = strconv.Atoi(val)
		case 'q':
			op.PairSeq, err = strconv.ParseInt(val, 10, 64)
		case 'w':
			op.Wire, err = strconv.ParseFloat(val, 64)
		case 'l':
			op.Label, err = strconv.Atoi(val)
		case 'e':
			op.Depth, err = strconv.Atoi(val)
		case 's':
			op.Span, err = strconv.Atoi(val)
		default:
			return Op{}, fmt.Errorf("skeleton: unknown op field %q", tok[:1])
		}
		if err != nil {
			return Op{}, fmt.Errorf("skeleton: bad op token %q: %v", tok, err)
		}
	}
	// No capture records a negative or non-finite time; replaying one would
	// yield a NaN or infinite makespan.
	if !(op.Dur >= 0 && op.Dur <= math.MaxFloat64 && op.Wire >= 0 && op.Wire <= math.MaxFloat64) {
		return Op{}, fmt.Errorf("skeleton: op %q has a negative or non-finite time", row)
	}
	return op, nil
}

// appendFile appends s's file under content key key, with every line after
// the first prefixed by pre: "" for a skeleton file, " " inside the store's
// envelope. These are the bytes encoding/json's indenter writes for the
// header plus a list of row lists.
func (s *Skeleton) appendFile(b []byte, key, pre string) ([]byte, error) {
	h := header{Format: FormatVersion, Key: key, P: s.P, Cost: s.Cost, Chaos: s.Chaos,
		Makespan: s.Makespan, Ops: s.Ops(), Labels: s.Labels}
	if h.Labels == nil {
		h.Labels = []string{}
	}
	head, err := json.MarshalIndent(&h, pre, " ")
	if err != nil {
		return b, err
	}
	line := func(b []byte, indent string) []byte { return append(append(append(b, '\n'), pre...), indent...) }
	// A list closes on its own line unless it is empty ("[]").
	end := func(b []byte, n int, indent string) []byte {
		if n > 0 {
			b = line(b, indent)
		}
		return append(b, ']')
	}
	b = append(b, head[:len(head)-len(pre)-2]...) // all but "\n"+pre+"}"
	b = line(append(b, ','), ` "procs": [`)
	for i, ops := range s.Procs {
		if i > 0 {
			b = append(b, ',')
		}
		b = line(b, "  [")
		for j, op := range ops {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(appendOp(line(b, `   "`), op), '"')
		}
		b = end(b, len(ops), "  ")
	}
	return append(line(end(b, len(s.Procs), " "), "}"), '\n'), nil
}

// bufs recycles the buffers Key and Decode render a whole file into only to
// hash or compare it.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Key returns the skeleton's content key, "fxskel-" plus the FNV-64a hash of
// the canonical encoding with an empty key. Identical runs have identical
// keys.
func (s *Skeleton) Key() (string, error) {
	buf := bufs.Get().(*[]byte)
	defer bufs.Put(buf)
	var err error
	if *buf, err = s.appendFile((*buf)[:0], "", ""); err != nil {
		return "", err
	}
	return sum(*buf), nil
}

// sum returns the content key of a file rendered with an empty key.
func sum(file []byte) string {
	h := fnv.New64a()
	h.Write(file)
	return fmt.Sprintf("fxskel-%016x", h.Sum64())
}

// Encode returns the canonical serialized form, content key included.
func (s *Skeleton) Encode() ([]byte, error) {
	key, err := s.Key()
	if err != nil {
		return nil, err
	}
	return s.appendFile(nil, key, "")
}

// Decode parses a serialized skeleton and verifies its content key. The
// header goes through encoding/json; after it, a line that opens a list
// starts a processor and a quoted line is one op row. Only the bytes Encode
// writes for the skeleton parsed are accepted: any other file, even valid
// JSON with the same content, is an error.
func Decode(data []byte) (*Skeleton, error) {
	procs := []byte(",\n \"procs\": [")
	i := bytes.Index(data, procs)
	if i < 0 {
		return nil, fmt.Errorf("skeleton: decode: no procs")
	}
	var h header
	if err := json.Unmarshal(append(data[:i:i], '}'), &h); err != nil {
		return nil, fmt.Errorf("skeleton: decode: %v", err)
	}
	if h.Format != FormatVersion {
		return nil, fmt.Errorf("skeleton: unsupported format %d (want %d)", h.Format, FormatVersion)
	}
	s := &Skeleton{P: h.P, Cost: h.Cost, Chaos: h.Chaos, Makespan: h.Makespan,
		Labels: h.Labels, Procs: [][]Op{}}
	for rest := data[i+len(procs):]; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		switch row := bytes.TrimLeft(line, " "); {
		case bytes.HasPrefix(row, []byte("[")):
			s.Procs = append(s.Procs, []Op{})
		case bytes.HasPrefix(row, []byte(`"`)) && len(s.Procs) > 0:
			row, _, _ = bytes.Cut(row[1:], []byte(`"`))
			op, err := parseOp(row)
			if err == nil && (op.Label >= len(s.Labels) || op.Span >= len(s.Labels)) {
				err = fmt.Errorf("skeleton: op references label out of range: %q", row)
			}
			if err != nil {
				return nil, err
			}
			ops := &s.Procs[len(s.Procs)-1]
			*ops = append(*ops, op)
		}
	}
	buf := bufs.Get().(*[]byte)
	defer bufs.Put(buf)
	var err error
	if *buf, err = s.appendFile((*buf)[:0], "", ""); err != nil {
		return nil, err
	}
	key := sum(*buf)
	if key != h.Key {
		return nil, fmt.Errorf("skeleton: content key mismatch (file says %s, content hashes to %s): corrupted or hand-edited", h.Key, key)
	}
	// The file must be that rendering with its key filled in.
	at := bytes.Index(*buf, []byte(`"key": "`)) + len(`"key": "`)
	rest, ok := bytes.CutPrefix(data, (*buf)[:at])
	if rest, ok2 := bytes.CutPrefix(rest, []byte(key)); !ok || !ok2 || !bytes.Equal(rest, (*buf)[at:]) {
		return nil, fmt.Errorf("skeleton: decode: not the canonical encoding of its content")
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
