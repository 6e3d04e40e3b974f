package main

import (
	"fmt"

	"mmdb"
)

// Tables of the ack log, in the order dataset stores their row addresses.
const (
	tabAcc = iota
	tabTel
	tabBr
	tabBulk
	numTabs
)

var tabNames = [numTabs]string{"accounts", "tellers", "branches", "bulk"}

// ackLog is the client-side record of acknowledged effects, as mmdbload
// keeps it: every acknowledged commit adds a fixed +1 to each balance it
// touched, so after any crash a row's stored balance must equal the
// acknowledged count — less is a lost commit, more a phantom.
type ackLog struct {
	count [numTabs][]int32 // acknowledged +1s per row
	dirty [numTabs][]int32 // rows touched since the last audit
	mark  [numTabs][]bool
	hist  int // history inserts acknowledged since history was last rotated
}

func newAckLog(sz sizes) *ackLog {
	a := &ackLog{}
	for t, n := range [numTabs]int{sz.accounts, sz.tellers, sz.branches, sz.bulkRows} {
		a.count[t] = make([]int32, n)
		a.mark[t] = make([]bool, n)
	}
	return a
}

func (a *ackLog) bump(tab int, id int32) {
	a.count[tab][id]++
	if !a.mark[tab][id] {
		a.mark[tab][id] = true
		a.dirty[tab] = append(a.dirty[tab], id)
	}
}

// ack records the effects of one acknowledged transaction.
func (a *ackLog) ack(o op) {
	switch o.kind {
	case opDebitCredit:
		a.bump(tabAcc, o.k[0])
		a.bump(tabTel, o.k[1])
		a.bump(tabBr, o.k[2])
		a.hist++
	case opBalUpdate:
		a.bump(tabBulk, o.k[0])
	case opUpdate4:
		for _, k := range o.k {
			a.bump(tabBulk, k)
		}
	}
}

// auditResult counts effects that differ between the ack log and the
// recovered database.
type auditResult struct {
	checked, lost, phantom int
	first                  string // first discrepancy, for the diagnostic
}

func (r *auditResult) diff(what string, stored, acked int) {
	r.checked++
	if stored == acked {
		return
	}
	if stored < acked {
		r.lost += acked - stored
	} else {
		r.phantom += stored - acked
	}
	if r.first == "" {
		r.first = fmt.Sprintf("%s: stored %d, acknowledged %d", what, stored, acked)
	}
}

// audit compares stored balances with the ack log inside one read
// transaction: the rows touched since the last audit, or every row when all
// is set. With history set it also checks that history holds exactly the
// acknowledged inserts.
func (a *ackLog) audit(db *mmdb.DB, ds *dataset, all, history bool) (auditResult, error) {
	var res auditResult
	ids := [numTabs][]mmdb.RowID{ds.accIDs, ds.telIDs, ds.brIDs, ds.bulkIDs}
	tx := db.Begin()
	defer func() { _ = tx.Abort() }() // read-only: nothing to keep
	for t := 0; t < numTabs; t++ {
		rel, err := db.GetRelation(tabNames[t])
		if err != nil {
			return res, err
		}
		check := func(id int32) error {
			tup, err := tx.Get(rel, ids[t][id])
			if err != nil {
				return fmt.Errorf("audit %s %d: %w", tabNames[t], id, err)
			}
			res.diff(fmt.Sprintf("%s %d", tabNames[t], id), int(tup[1].(float64)), int(a.count[t][id]))
			return nil
		}
		if all {
			for id := range a.count[t] {
				if err := check(int32(id)); err != nil {
					return res, err
				}
			}
		} else {
			for _, id := range a.dirty[t] {
				if err := check(id); err != nil {
					return res, err
				}
			}
		}
		for _, id := range a.dirty[t] {
			a.mark[t][id] = false
		}
		a.dirty[t] = a.dirty[t][:0]
	}
	if history {
		rel, err := db.GetRelation("history")
		if err != nil {
			return res, err
		}
		n, err := tx.Count(rel)
		if err != nil {
			return res, fmt.Errorf("audit history: %w", err)
		}
		res.diff("history rows", n, a.hist)
	}
	return res, nil
}

// rotateHistory replaces history with an empty relation, so that every
// round inserts into the same (empty) segment and rounds are identical work:
// insert placement is first-fit over every partition of the segment.
func (a *ackLog) rotateHistory(db *mmdb.DB) error {
	if err := db.DropRelation("history"); err != nil {
		return err
	}
	if _, err := db.CreateRelation("history", historySchema); err != nil {
		return err
	}
	a.hist = 0
	return nil
}
