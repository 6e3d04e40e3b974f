package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// testdata/golden.txt pins both decoders to the outcomes they gave when
// the file was written, for a fixed table of inputs: every opcode and
// status, each frame cut at every byte and re-framed after every cut of
// its payload, a trailing byte after each, each cap at and one past its
// limit, and bad tags, opcodes, statuses and row addresses. A line is
//
//	name input request-outcome response-outcome
//
// where an outcome is "short", "corrupt" or "ok:<consumed>:<re-encoding>",
// the re-encoding "=" when it equals the bytes consumed. A byte string is
// hex pieces joined by ".", a piece "hh*N" being byte hh N times.
//
// go test ./internal/server/proto -run '^TestGoldenOutcomes$' -update
// rewrites the file from goldenInputs and the current decoders; that is
// only for a deliberate change of the wire format.
var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current decoders")

const goldenPath = "testdata/golden.txt"

func TestGoldenOutcomes(t *testing.T) {
	if *update {
		var b bytes.Buffer
		for _, in := range goldenInputs() {
			fmt.Fprintf(&b, "%s %s %s %s\n", in.name, packHex(in.b), requestOutcome(in.b), responseOutcome(in.b))
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("line %d: %d fields", lines, len(fields))
		}
		in, err := unpackHex(fields[1])
		if err != nil {
			t.Fatalf("%s: %v", fields[0], err)
		}
		if got := requestOutcome(in); got != fields[2] {
			t.Errorf("%s: DecodeRequest gives %s, golden %s", fields[0], got, fields[2])
		}
		if got := responseOutcome(in); got != fields[3] {
			t.Errorf("%s: DecodeResponse gives %s, golden %s", fields[0], got, fields[3])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(goldenInputs()); lines != want {
		t.Fatalf("%s has %d lines, goldenInputs %d", goldenPath, lines, want)
	}
}

func requestOutcome(in []byte) string {
	r, n, err := DecodeRequest(in)
	if err != nil {
		return errClass(err)
	}
	return okOutcome(in[:n], AppendRequest(nil, &r))
}

func responseOutcome(in []byte) string {
	r, n, err := DecodeResponse(in)
	if err != nil {
		return errClass(err)
	}
	return okOutcome(in[:n], AppendResponse(nil, &r))
}

func errClass(err error) string {
	switch {
	case errors.Is(err, ErrShort):
		return "short"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "unclassified"
}

func okOutcome(consumed, reencoded []byte) string {
	if bytes.Equal(consumed, reencoded) {
		return fmt.Sprintf("ok:%d:=", len(consumed))
	}
	return fmt.Sprintf("ok:%d:%s", len(consumed), packHex(reencoded))
}

// packHex writes b as hex, a run of 16 or more equal bytes as "hh*N".
func packHex(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	var pieces []string
	lit := 0
	for i := 0; i < len(b); {
		j := i
		for j < len(b) && b[j] == b[i] {
			j++
		}
		if j-i >= 16 {
			if lit < i {
				pieces = append(pieces, hex.EncodeToString(b[lit:i]))
			}
			pieces = append(pieces, fmt.Sprintf("%02x*%d", b[i], j-i))
			lit = j
		}
		i = j
	}
	if lit < len(b) {
		pieces = append(pieces, hex.EncodeToString(b[lit:]))
	}
	return strings.Join(pieces, ".")
}

func unpackHex(s string) ([]byte, error) {
	if s == "-" {
		return nil, nil
	}
	var out []byte
	for _, piece := range strings.Split(s, ".") {
		if h, count, ok := strings.Cut(piece, "*"); ok {
			n, err := strconv.Atoi(count)
			b, herr := hex.DecodeString(h)
			if err != nil || herr != nil || len(b) != 1 {
				return nil, fmt.Errorf("bad run %q", piece)
			}
			out = append(out, bytes.Repeat(b, n)...)
			continue
		}
		b, err := hex.DecodeString(piece)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

type goldenInput struct {
	name string
	b    []byte
}

func goldenRequests() []Request {
	return append(sampleRequests(),
		Request{ID: 1 << 40, Op: OpInsert, Rel: "", Vals: []any{int64(-1), math.Inf(-1), ""}},
		Request{ID: 21, Op: OpUpdate, Rel: "r", Addr: Row{Seg: math.MaxUint32, Part: math.MaxUint32, Slot: math.MaxUint16}},
		Request{ID: 22, Op: OpCreateIndex, Rel: "r", Idx: "i", Col: "c", Kind: 1, Order: math.MaxUint32},
		Request{ID: 23, Op: OpScan, Rel: "r", Limit: MaxRows},
		Request{ID: 24, Op: OpDebitCredit, Account: -1, Teller: math.MinInt64, Branch: math.MaxInt64, Delta: math.NaN(), Seq: math.MaxUint64},
	)
}

func goldenResponses() []Response {
	return append(sampleResponses(),
		Response{ID: 12, Status: StatusNotFound, Msg: "no such row"},
		Response{ID: 13, Status: StatusExists, Msg: ""},
		Response{ID: 14, Status: StatusDeadlock, Msg: "victim"},
		Response{ID: 15, Status: StatusBadRequest, Msg: "bad"},
		Response{ID: 16, Status: StatusOK, Addr: Row{Seg: math.MaxUint32, Part: 1, Slot: math.MaxUint16},
			Tuple:  []any{"a", int64(-5)},
			Rows:   []RowTuple{{Addr: Row{Seg: 2, Part: math.MaxUint32, Slot: 0}}, {Tuple: []any{0.5}}},
			Schema: []Col{{Name: "a", Type: 3}, {Name: "b", Type: 1}},
			Seq:    7, Val: -1.5, N: 1 << 50, Blob: []byte{0, 1, 2}},
	)
}

// framed prefixes payload with its uvarint length.
func framed(payload ...[]byte) []byte {
	p := bytes.Join(payload, nil)
	return append(appendUvarint(nil, uint64(len(p))), p...)
}

func uv(v uint64) []byte { return appendUvarint(nil, v) }

// okHead is an OK response payload up to its address: id 1, status OK.
var okHead = []byte{1, byte(StatusOK)}

// okTail is the rest of an OK response after its tuple: no rows, no
// schema, zero seq, val and n, and an empty blob.
var okTail = []byte{0, 0, 0, 0, 0, 0}

func goldenInputs() []goldenInput {
	var ins []goldenInput
	add := func(name string, b []byte) { ins = append(ins, goldenInput{name, b}) }

	var frames []goldenInput
	for i, r := range goldenRequests() {
		frames = append(frames, goldenInput{fmt.Sprintf("req%02d-%s", i, r.Op), AppendRequest(nil, &r)})
	}
	for i, r := range goldenResponses() {
		frames = append(frames, goldenInput{fmt.Sprintf("resp%02d-%s", i, r.Status), AppendResponse(nil, &r)})
	}
	for _, f := range frames {
		add(f.name, f.b)
		for cut := 0; cut < len(f.b); cut++ {
			add(fmt.Sprintf("%s/cut%d", f.name, cut), f.b[:cut])
		}
		_, hn := binary.Uvarint(f.b)
		payload := f.b[hn:]
		for cut := 0; cut < len(payload); cut++ {
			add(fmt.Sprintf("%s/torn%d", f.name, cut), framed(payload[:cut]))
		}
		add(f.name+"/trailing", framed(payload, []byte{0}))
	}
	add("two-frames", append(append([]byte(nil), frames[0].b...), frames[1].b...))

	// The frame header.
	add("frame/mid-varint", []byte{0x80})
	add("frame/len-zero", []byte{0})
	add("frame/len-max", uv(MaxFrame))
	add("frame/len-max+1", uv(MaxFrame+1))
	add("frame/len-overflow", bytes.Repeat([]byte{0xff}, 11))

	// Opcodes and statuses.
	for _, op := range []byte{byte(OpInvalid), byte(opMax), 0xff} {
		add(fmt.Sprintf("opcode/%d", op), framed([]byte{1, op}))
	}
	for _, st := range []byte{byte(statusMax), 0xff} {
		add(fmt.Sprintf("status/%d", st), framed([]byte{1, st}, appendString(nil, "m")))
	}
	add("payload/varint-overflow", framed([]byte{1, byte(OpSchema)}, bytes.Repeat([]byte{0xff}, 10)))

	// Strings.
	schema := func(n uint64, body int) []byte {
		return framed([]byte{1, byte(OpSchema)}, uv(n), bytes.Repeat([]byte{'a'}, body))
	}
	add("string/max", schema(MaxString, MaxString))
	add("string/max+1", schema(MaxString+1, MaxString+1))
	add("string/past-payload", schema(5, 4))

	// Values and their tags.
	insert := func(n uint64, vals []byte) []byte {
		return framed([]byte{1, byte(OpInsert)}, appendString(nil, "r"), uv(n), vals)
	}
	ints := func(n int) []byte { return bytes.Repeat([]byte{tagInt, 1}, n) }
	add("vals/max", insert(MaxCols*4, ints(MaxCols*4)))
	add("vals/max+1", insert(MaxCols*4+1, ints(MaxCols*4+1)))
	add("vals/past-payload", insert(3, ints(1)))
	for _, tag := range []byte{0, 4, 0xff} {
		add(fmt.Sprintf("tag/%d", tag), insert(1, []byte{tag, 1}))
		add(fmt.Sprintf("tag/%d/response", tag), framed(okHead, []byte{0, 0, 0, 1, tag, 1}, okTail))
	}

	// Columns.
	createRel := func(n uint64, cols int) []byte {
		return framed([]byte{1, byte(OpCreateRel)}, appendString(nil, "r"), uv(n), make([]byte, 2*cols))
	}
	add("cols/max", createRel(MaxCols, MaxCols))
	add("cols/max+1", createRel(MaxCols+1, MaxCols+1))
	add("cols/past-payload", createRel(2, 1))

	// Rows of a response, and the scan limit of a request.
	rows := func(n uint64, rows int) []byte {
		return framed(okHead, []byte{0, 0, 0, 0}, uv(n), make([]byte, 4*rows), okTail[1:])
	}
	add("rows/max", rows(MaxRows, MaxRows))
	add("rows/max+1", rows(MaxRows+1, MaxRows+1))
	add("rows/past-payload", rows(2, 1))
	for _, limit := range []uint64{MaxRows, MaxRows + 1, 1 << 40} {
		add(fmt.Sprintf("limit/%d", limit), framed([]byte{1, byte(OpScan)}, appendString(nil, "r"), uv(limit)))
	}

	// Blobs.
	blob := func(n uint64, body int) []byte {
		return framed(okHead, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uv(n), make([]byte, body))
	}
	add("blob/fits", blob(3, 3))
	add("blob/past-payload", blob(4, 3))
	add("blob/max+1", blob(MaxFrame+1, 3))

	// Row addresses and the index order.
	for _, c := range []struct {
		name            string
		seg, part, slot uint64
	}{
		{"max", math.MaxUint32, math.MaxUint32, math.MaxUint16},
		{"seg+1", math.MaxUint32 + 1, 0, 0},
		{"part+1", 0, math.MaxUint32 + 1, 0},
		{"slot+1", 0, 0, math.MaxUint16 + 1},
	} {
		addr := bytes.Join([][]byte{uv(c.seg), uv(c.part), uv(c.slot)}, nil)
		add("row/"+c.name+"/get", framed([]byte{1, byte(OpGet)}, appendString(nil, "r"), addr))
		add("row/"+c.name+"/response", framed(okHead, addr, []byte{0}, okTail))
		add("row/"+c.name+"/response-rows", framed(okHead, []byte{0, 0, 0, 0, 1}, addr, []byte{0}, okTail[1:]))
	}
	for _, order := range []uint64{math.MaxUint32, math.MaxUint32 + 1} {
		add(fmt.Sprintf("order/%d", order), framed([]byte{1, byte(OpCreateIndex)},
			appendString(nil, "r"), appendString(nil, "i"), appendString(nil, "c"), []byte{1}, uv(order)))
	}
	return ins
}
