// Telecom: a call-record ingest workload demonstrating the two-phase
// post-crash recovery that motivates the paper (§2.5): after a crash,
// the hot subscriber table is demanded immediately by transactions and
// recovered first, while the large cold call-detail archive is restored
// in the background at low priority. Transaction processing resumes as
// soon as the catalogs plus the demanded partitions are back — not
// after the whole database reloads.
package main

import (
	"fmt"
	"log"
	"time"

	"mmdb"
)

func main() {
	cfg := mmdb.DefaultConfig()
	cfg.UpdateThreshold = 2000
	db, err := mmdb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	subscribers, err := db.CreateRelation("subscribers", mmdb.Schema{
		{Name: "msisdn", Type: mmdb.Int64},
		{Name: "plan", Type: mmdb.String},
		{Name: "minutes_used", Type: mmdb.Float64},
	})
	if err != nil {
		log.Fatal(err)
	}
	calls, err := db.CreateRelation("call_records", mmdb.Schema{
		{Name: "caller", Type: mmdb.Int64},
		{Name: "callee", Type: mmdb.Int64},
		{Name: "seconds", Type: mmdb.Float64},
		{Name: "cell", Type: mmdb.String},
	})
	if err != nil {
		log.Fatal(err)
	}
	byPhone, err := db.CreateIndex(subscribers, "by_msisdn", "msisdn", mmdb.KindLinHash, 16)
	if err != nil {
		log.Fatal(err)
	}

	// Small hot table, large cold archive.
	subIDs := map[int64]mmdb.RowID{}
	tx := db.Begin()
	for i := int64(0); i < 200; i++ {
		id, err := tx.Insert(subscribers, mmdb.Tuple{7000000 + i, "flat", 0.0})
		if err != nil {
			log.Fatal(err)
		}
		subIDs[7000000+i] = id
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	for batch := 0; batch < 20; batch++ {
		tx := db.Begin()
		for i := 0; i < 250; i++ {
			n := int64(batch*250 + i)
			_, err := tx.Insert(calls, mmdb.Tuple{
				7000000 + n%200, 7000000 + (n*7)%200, float64(30 + n%600),
				fmt.Sprintf("cell-%03d", n%50),
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("loaded 200 subscribers (hot) and 5000 call records (cold)")
	db.WaitIdle()
	hw := db.Crash()
	fmt.Println("crash!")

	t0 := time.Now()
	db2, err := mmdb.Recover(hw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	catalogReady := time.Since(t0)

	// First transaction: a billing check on one subscriber. Only the
	// subscriber table's partitions are demanded.
	subs2, err := db2.GetRelation("subscribers")
	if err != nil {
		log.Fatal(err)
	}
	idx2 := subs2.Index("by_msisdn")
	tq := db2.Begin()
	var plan string
	if err := tq.IndexLookup(idx2, int64(7000042), func(id mmdb.RowID, tup mmdb.Tuple) bool {
		plan = tup[1].(string)
		return false
	}); err != nil {
		log.Fatal(err)
	}
	_ = tq.Abort()
	firstTxn := time.Since(t0)
	fmt.Printf("catalogs ready in %v; first billing lookup (plan=%q) served in %v\n",
		catalogReady, plan, firstTxn)

	recovered := func() int64 { return db2.Metrics().Subsystem("restart").Counter("partitions_recovered") }
	onDemand := recovered()
	fmt.Printf("partitions recovered on demand so far: %d\n", onDemand)

	// Meanwhile the background sweep restores the call archive; wait
	// for it and run an aggregate.
	for i := 0; i < 1000; i++ {
		if recovered() >= onDemand+1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	calls2, err := db2.GetRelation("call_records")
	if err != nil {
		log.Fatal(err)
	}
	ta := db2.Begin()
	defer ta.Abort()
	var totalSeconds float64
	n := 0
	if err := ta.Scan(calls2, func(id mmdb.RowID, tup mmdb.Tuple) bool {
		totalSeconds += tup[2].(float64)
		n++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fullRecovery := time.Since(t0)
	fmt.Printf("call archive restored: %d records, %.0f call-seconds (full recovery after %v)\n",
		n, totalSeconds, fullRecovery)
	fmt.Printf("total partitions recovered: %d, log pages replayed: %d\n",
		recovered(), db2.Metrics().Subsystem("restart").Counter("log_pages_read"))
	_ = byPhone
	_ = subIDs
}
