package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// The four workloads; later issues cite these names.
const (
	wDCInproc    = "dc_inproc"
	wDCWire      = "dc_wire"
	wReadMix     = "read_mix"
	wUpdateCrash = "update_crash"
)

var workloadNames = []string{wDCInproc, wDCWire, wReadMix, wUpdateCrash}

func isDC(workload string) bool { return workload == wDCInproc || workload == wDCWire }

type opKind uint8

const (
	opDebitCredit opKind = iota + 1 // k = account, teller, branch
	opPKLookup                      // k[0] = bulk id, linhash point lookup
	opTreeLookup                    // k[0] = bulk id, T-Tree point lookup of its grp
	opTreeRange                     // k[0] = bulk id, T-Tree range of rangeLen grps
	opBalUpdate                     // k[0] = bulk id, pk lookup + bal = bal+1 + commit
	opUpdate4                       // k = 4 bulk ids, read-modify-write of bal by stored RowID
)

// rangeLen is the width of read_mix's T-Tree range scans.
const rangeLen = 20

// op is one generated transaction. The program under test sees only these.
type op struct {
	kind opKind
	k    [4]int32
}

// grpOf is bulk's grp column: a fixed permutation of the ids, so that
// neighbouring T-Tree keys live in unrelated partitions. 7919 is prime and
// divides no bulk size used here.
func grpOf(id, bulkRows int) int { return id * 7919 % bulkRows }

// generator turns a seed into the operation stream of one workload. The
// stream does not depend on timing: round i is always the i-th chunk.
type generator struct {
	workload string
	sz       sizes
	rng      *rand.Rand
	zipf     *rand.Zipf
}

func newGenerator(workload string, seed int64, sz sizes) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{workload: workload, sz: sz, rng: rng}
	if workload == wReadMix {
		g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(sz.bulkRows-1))
	}
	return g
}

func (g *generator) next() op {
	switch g.workload {
	case wDCInproc, wDCWire:
		// Gray's debit/credit with uniform keys.
		return op{kind: opDebitCredit, k: [4]int32{
			int32(g.rng.Intn(g.sz.accounts)), int32(g.rng.Intn(g.sz.tellers)), int32(g.rng.Intn(g.sz.branches)),
		}}
	case wReadMix:
		// Zipf rank r is bulk id r: the hot rows share the first partitions.
		id := int32(g.zipf.Uint64())
		p := g.rng.Intn(100)
		kind := opBalUpdate
		switch {
		case p < 45:
			kind = opPKLookup
		case p < 80:
			kind = opTreeLookup
		case p < 90:
			kind = opTreeRange
		}
		return op{kind: kind, k: [4]int32{id}}
	default: // update_crash
		o := op{kind: opUpdate4}
		for i := range o.k {
			o.k[i] = g.hotCold()
		}
		return o
	}
}

// hotCold sends 90 % of accesses to the 10 % of bulk rows whose id is a
// multiple of ten. The hot rows are spread one per partition or so, so every
// partition stays warm: each fills a log page now and then and is then left
// to age out of the small log window.
func (g *generator) hotCold() int32 {
	hot := g.sz.bulkRows / 10
	if g.rng.Intn(10) != 0 {
		return int32(g.rng.Intn(hot) * 10)
	}
	c := g.rng.Intn(g.sz.bulkRows - hot)
	return int32(c/9*10 + c%9 + 1)
}

func (g *generator) round(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// postCrashOps is the fixed sequence run after every recovery: the same keys
// on every cycle of every seed, so the partitions the first transactions
// fault in are the same. The first one always commits a write.
func postCrashOps(workload string, sz sizes) []op {
	g := newGenerator(workload, 0x5eed, sz)
	ops := g.round(sz.postTxns)
	if workload == wReadMix {
		ops[0].kind = opBalUpdate
	}
	return ops
}

// streamHash fingerprints an operation stream (generator determinism test).
func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		for i, k := range o.k {
			binary.LittleEndian.PutUint32(b[1+4*i:], uint32(k))
		}
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}
