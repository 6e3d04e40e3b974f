package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mmdb"
	"mmdb/internal/server"
	"mmdb/internal/server/client"
)

// engine is how a workload reaches the program: through the mmdb facade in
// process, or through server/proto/client over loopback TCP. Both run the
// same skeleton.
type engine interface {
	// db is the current instance; it changes with every crash.
	db() *mmdb.DB
	// round runs ops closed-loop (one outstanding transaction per caller)
	// and returns the wall time. lat[i] and errs[i] belong to ops[i].
	// trs holds one tracer per caller, or nil for an untraced round.
	round(ops []op, lat []time.Duration, errs []error, trs []*tracer, txnBase int64) time.Duration
	// one runs a single transaction from caller 0.
	one(o op, tr *tracer, txn int64) error
	// crash loses every volatile structure and recovers from the surviving
	// hardware; it returns once the new instance accepts transactions.
	crash() error
	callers() int
	close() error
}

// deadlockRetries mirrors server.withTxn's transparent retry bound.
const deadlockRetries = 8

// inproc executes operations through the mmdb facade on one goroutine.
type inproc struct {
	cfg   mmdb.Config
	d     *mmdb.DB
	ds    *dataset
	sz    sizes
	bulk  *mmdb.Relation
	pk    *mmdb.Index
	byGrp *mmdb.Index
	seq   int64
}

func newInproc(db *mmdb.DB, cfg mmdb.Config, ds *dataset, sz sizes) (*inproc, error) {
	e := &inproc{cfg: cfg, ds: ds, sz: sz}
	return e, e.attach(db)
}

// attach re-resolves the handles that die with an instance.
func (e *inproc) attach(db *mmdb.DB) error {
	e.d = db
	bulk, err := db.GetRelation("bulk")
	if err != nil {
		return err
	}
	e.bulk, e.pk, e.byGrp = bulk, bulk.Index("pk"), bulk.Index("by_grp")
	if e.pk == nil || e.byGrp == nil {
		return fmt.Errorf("%w: bulk indexes", mmdb.ErrNotFound)
	}
	return nil
}

func (e *inproc) db() *mmdb.DB { return e.d }
func (e *inproc) callers() int { return 1 }
func (e *inproc) close() error { return e.d.Close() }

func (e *inproc) crash() error {
	hw := e.d.Crash()
	db, err := mmdb.Recover(hw, e.cfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return e.attach(db)
}

func (e *inproc) round(ops []op, lat []time.Duration, errs []error, trs []*tracer, txnBase int64) time.Duration {
	var tr *tracer
	if trs != nil {
		tr = trs[0]
	}
	start := time.Now()
	prev := start
	for i := range ops {
		errs[i] = e.one(ops[i], tr, txnBase+int64(i))
		now := time.Now()
		lat[i] = now.Sub(prev)
		prev = now
	}
	return prev.Sub(start)
}

func (e *inproc) one(o op, tr *tracer, txn int64) error {
	root := tr.begin(spTxn, -1, txn)
	defer tr.end(root)
	if o.kind == opDebitCredit {
		return e.debitCredit(o, tr, root, txn)
	}
	s := tr.begin(spBegin, root, txn)
	tx := e.d.Begin()
	tr.end(s)
	err := e.body(tx, o, tr, root, txn)
	if err == nil {
		s = tr.begin(spCommit, root, txn)
		err = tx.Commit()
		tr.end(s)
		if err == nil {
			return nil
		}
	}
	s = tr.begin(spAbort, root, txn)
	_ = tx.Abort() // the first error is the one reported
	tr.end(s)
	return err
}

// body runs one bulk-relation operation inside tx and checks what it read.
func (e *inproc) body(tx *mmdb.Txn, o op, tr *tracer, root int, txn int64) error {
	id := int(o.k[0])
	switch o.kind {
	case opPKLookup, opBalUpdate:
		var row mmdb.RowID
		var bal float64
		n := 0
		s := tr.begin(spLookup, root, txn)
		err := tx.IndexLookup(e.pk, int64(id), func(r mmdb.RowID, t mmdb.Tuple) bool {
			if t[0] == int64(id) {
				row, bal = r, t[1].(float64)
				n++
			}
			return true
		})
		tr.end(s)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("pk lookup %d: %d rows", id, n)
		}
		if o.kind == opPKLookup {
			return nil
		}
		s = tr.begin(spUpdate, root, txn)
		err = tx.Update(e.bulk, row, map[string]any{"bal": bal + 1})
		tr.end(s)
		return err
	case opTreeLookup, opTreeRange:
		lo := grpOf(id, e.sz.bulkRows)
		hi, want := lo, 1
		if o.kind == opTreeRange {
			hi = lo + rangeLen - 1
			want = rangeLen
			if rest := e.sz.bulkRows - lo; rest < want {
				want = rest
			}
		}
		n := 0
		s := tr.begin(spLookup, root, txn)
		err := tx.IndexRange(e.byGrp, int64(lo), int64(hi), func(_ mmdb.RowID, t mmdb.Tuple) bool {
			if g := t[2].(int64); g >= int64(lo) && g <= int64(hi) {
				n++
			}
			return true
		})
		tr.end(s)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("grp range [%d,%d]: %d rows, want %d", lo, hi, n, want)
		}
		return nil
	case opUpdate4:
		for _, k := range o.k {
			row := e.ds.bulkIDs[k]
			s := tr.begin(spGet, root, txn)
			t, err := tx.Get(e.bulk, row)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin(spUpdate, root, txn)
			err = tx.Update(e.bulk, row, map[string]any{"bal": t[1].(float64) + 1})
			tr.end(s)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// debitCredit is server.debitCredit statement for statement — the same
// catalog look-ups, three pk look-ups, three updates, one history insert and
// the same deadlock retry loop — so dc_wire minus dc_inproc is the wire.
func (e *inproc) debitCredit(o op, tr *tracer, root int, txn int64) error {
	db := e.d
	var rels [4]*mmdb.Relation
	for i, name := range [4]string{"accounts", "tellers", "branches", "history"} {
		r, err := db.GetRelation(name)
		if err != nil {
			return err
		}
		rels[i] = r
	}
	accounts, tellers, branches, history := rels[0], rels[1], rels[2], rels[3]
	accPK, telPK, brPK := accounts.Index("pk"), tellers.Index("pk"), branches.Index("pk")
	if accPK == nil || telPK == nil || brPK == nil {
		return fmt.Errorf("%w: debit-credit pk indexes", mmdb.ErrNotFound)
	}
	account, teller, branch := int64(o.k[0]), int64(o.k[1]), int64(o.k[2])
	const delta = 1.0
	e.seq++
	seq := e.seq

	findOne := func(tx *mmdb.Txn, idx *mmdb.Index, key int64) (mmdb.RowID, mmdb.Tuple, error) {
		var id mmdb.RowID
		var tup mmdb.Tuple
		found := false
		s := tr.begin(spLookup, root, txn)
		err := tx.IndexLookup(idx, key, func(i mmdb.RowID, t mmdb.Tuple) bool {
			id, tup, found = i, t, true
			return false
		})
		tr.end(s)
		if err != nil {
			return id, nil, err
		}
		if !found {
			return id, nil, fmt.Errorf("%w: %s %d", mmdb.ErrNotFound, idx.Relation().Name(), key)
		}
		return id, tup, nil
	}
	update := func(tx *mmdb.Txn, rel *mmdb.Relation, id mmdb.RowID, changes map[string]any) error {
		s := tr.begin(spUpdate, root, txn)
		err := tx.Update(rel, id, changes)
		tr.end(s)
		return err
	}
	body := func(tx *mmdb.Txn) error {
		accID, accTup, err := findOne(tx, accPK, account)
		if err != nil {
			return err
		}
		bal, _ := accTup[1].(float64)
		stored, _ := accTup[2].(int64)
		newSeq := seq
		if stored > newSeq {
			newSeq = stored
		}
		if err := update(tx, accounts, accID, map[string]any{"bal": bal + delta, "seq": newSeq}); err != nil {
			return err
		}
		telID, telTup, err := findOne(tx, telPK, teller)
		if err != nil {
			return err
		}
		tbal, _ := telTup[1].(float64)
		if err := update(tx, tellers, telID, map[string]any{"bal": tbal + delta}); err != nil {
			return err
		}
		brID, brTup, err := findOne(tx, brPK, branch)
		if err != nil {
			return err
		}
		bbal, _ := brTup[1].(float64)
		if err := update(tx, branches, brID, map[string]any{"bal": bbal + delta}); err != nil {
			return err
		}
		s := tr.begin(spInsert, root, txn)
		_, err = tx.Insert(history, mmdb.Tuple{account, teller, branch, delta})
		tr.end(s)
		return err
	}

	var err error
	for attempt := 0; attempt < deadlockRetries; attempt++ {
		s := tr.begin(spBegin, root, txn)
		tx := db.Begin()
		tr.end(s)
		err = body(tx)
		if err == nil {
			s = tr.begin(spCommit, root, txn)
			err = tx.Commit()
			tr.end(s)
			if err == nil {
				return nil
			}
		}
		s = tr.begin(spAbort, root, txn)
		_ = tx.Abort() // the first error is the one reported
		tr.end(s)
		if !errors.Is(err, mmdb.ErrDeadlock) {
			return err
		}
	}
	return err
}

// wire executes debit/credit as OpDebitCredit through an in-process server
// over loopback TCP: nproc connections, one outstanding request each.
type wire struct {
	srv   *server.Server
	conns []*client.Conn
	seq   []uint64 // per connection; only its caller touches it
}

func newWire(db *mmdb.DB, cfg mmdb.Config, nconn int) (*wire, error) {
	srv, err := server.New(db, cfg, server.Config{Workers: nconn})
	if err != nil {
		return nil, err
	}
	w := &wire{srv: srv, seq: make([]uint64, nconn)}
	for i := 0; i < nconn; i++ {
		c, err := client.Dial(srv.Addr())
		if err != nil {
			_ = w.close()
			return nil, err
		}
		w.conns = append(w.conns, c)
	}
	return w, nil
}

func (w *wire) db() *mmdb.DB { return w.srv.DB() }
func (w *wire) callers() int { return len(w.conns) }

func (w *wire) close() error {
	for _, c := range w.conns {
		_ = c.Close() // the server's Close below reports what matters
	}
	return w.srv.Close() // closes the DB too
}

func (w *wire) crash() error {
	_, err := w.conns[0].Crash()
	return err
}

func (w *wire) call(c int, o op, tr *tracer, txn int64) error {
	if o.kind != opDebitCredit {
		return fmt.Errorf("wire: unsupported op kind %d", o.kind)
	}
	root := tr.begin(spTxn, -1, txn)
	defer tr.end(root)
	w.seq[c]++
	seq := w.seq[c]
	s := tr.begin(spWire, root, txn)
	_, _, err := w.conns[c].DebitCredit(int64(o.k[0]), int64(o.k[1]), int64(o.k[2]), 1.0, seq)
	tr.end(s)
	return err
}

func (w *wire) one(o op, tr *tracer, txn int64) error { return w.call(0, o, tr, txn) }

// round gives caller c the ops c, c+n, c+2n, ... of the round.
func (w *wire) round(ops []op, lat []time.Duration, errs []error, trs []*tracer, txnBase int64) time.Duration {
	n := len(w.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		var tr *tracer
		if trs != nil {
			tr = trs[c]
		}
		wg.Add(1)
		go func(c int, tr *tracer) {
			defer wg.Done()
			prev := time.Now()
			for i := c; i < len(ops); i += n {
				errs[i] = w.call(c, ops[i], tr, txnBase+int64(i))
				now := time.Now()
				lat[i] = now.Sub(prev)
				prev = now
			}
		}(c, tr)
	}
	wg.Wait()
	return time.Since(start)
}
