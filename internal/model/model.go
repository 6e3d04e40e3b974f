// Package model implements the paper's §3 performance analysis: the
// Table 2 parameters and the closed-form formulas for logging capacity
// (Graph 1), maximum transaction rate (Graph 2), and checkpoint
// frequency (Graph 3). The simulator charges these same per-operation
// instruction costs from its real code paths, so analytic and measured
// results are directly comparable.
//
// Variable conventions (Table 1): I = instruction counts, S = sizes,
// N = numbers of things, R = rates, P = processing power, f = fractions.
package model

// Params collects every Table 2 parameter. Field comments carry the
// paper's name, meaning, and units.
type Params struct {
	// IRecordLookup: read one log record and determine the index of
	// its partition bin. Instructions/record.
	IRecordLookup float64
	// ICopyFixed: startup cost of copying a string of bytes.
	// Instructions/copy.
	ICopyFixed float64
	// ICopyAdd: additional cost per byte of copying a string of
	// bytes. Instructions/byte.
	ICopyAdd float64
	// IWriteInit: cost of initiating a disk write of a full log bin
	// page. Instructions/page write.
	IWriteInit float64
	// IPageAlloc: cost of allocating a new log bin page and releasing
	// the old one. Instructions/page write.
	IPageAlloc float64
	// IPageUpdate: cost of updating the log bin page information.
	// Instructions/record.
	IPageUpdate float64
	// IPageCheck: cost of checking the existence of a log bin page.
	// Instructions/log record.
	IPageCheck float64
	// IProcessLSN: cost of maintaining the LSN count and checking for
	// possible checkpoints. Instructions/page write.
	IProcessLSN float64
	// ICheckpoint: cost of signaling the main CPU to start a
	// checkpoint transaction. Instructions/checkpoint.
	ICheckpoint float64
	// SLogRecord: average size of a log record. Bytes/record.
	SLogRecord float64
	// SLogPage: size of a log page. Bytes/page.
	SLogPage float64
	// SPartition: size of a partition. Bytes/partition.
	SPartition float64
	// NUpdate: the number of log records that a partition can
	// accumulate before a checkpoint is triggered. Records/partition.
	NUpdate float64
	// PRecovery: MIPS power of the recovery CPU. Million
	// instructions/second.
	PRecovery float64
}

// PaperParams returns the Table 2 values: a 1-MIPS recovery CPU, 24-byte
// average log records, 8 KB log pages, 48 KB partitions, and a
// 1000-update checkpoint threshold.
func PaperParams() Params {
	return Params{
		IRecordLookup: 20,
		ICopyFixed:    3,
		ICopyAdd:      0.125,
		IWriteInit:    500,
		IPageAlloc:    100,
		IPageUpdate:   10,
		IPageCheck:    10,
		IProcessLSN:   40,
		ICheckpoint:   40,
		SLogRecord:    24,
		SLogPage:      8 * 1024,
		SPartition:    48 * 1024,
		NUpdate:       1000,
		PRecovery:     1.0,
	}
}

// IRecordSort is the total cost of the record sorting process
// (instructions/record): moving one log record from the Stable Log
// Buffer into its partition bin in the Stable Log Tail.
//
//	I_record_sort = I_record_lookup + I_page_check + I_copy_fixed
//	              + I_copy_add * S_log_record + I_page_update
func (p Params) IRecordSort() float64 {
	return p.IRecordLookup + p.IPageCheck + p.ICopyFixed +
		p.ICopyAdd*p.SLogRecord + p.IPageUpdate
}

// IPageWrite is the total per-record cost of writing partition-bin
// pages from the SLT to the log disk and signaling checkpoints
// (instructions/record). The per-page costs are amortised over the
// records in a page; the checkpoint signal over N_update records.
//
//	I_page_write = (I_write_init + I_process_LSN) / recs_per_page
//	             + I_checkpoint / N_update        [per record]
//
// Following the paper's structure, the page-level term divides by
// records per page = S_log_page / S_log_record.
func (p Params) IPageWrite() float64 {
	recsPerPage := p.SLogPage / p.SLogRecord
	return (p.IWriteInit+p.IPageAlloc+p.IProcessLSN)/recsPerPage +
		p.ICheckpoint/p.NUpdate
}

// RBytesLogged is the logging capacity in bytes/second:
//
//	R_bytes_logged = P_recovery / (I_record_sort / S_log_record)
//
// including the amortised page-write cost.
func (p Params) RBytesLogged() float64 {
	instrPerByte := (p.IRecordSort() + p.IPageWrite()) / p.SLogRecord
	return p.PRecovery * 1e6 / instrPerByte
}

// RRecordsLogged is the logging capacity in log records/second
// (Graph 1's y-axis).
func (p Params) RRecordsLogged() float64 {
	return p.RBytesLogged() / p.SLogRecord
}

// MaxTransactionRate is Graph 2's y-axis: the maximum transaction rate
// the logging component can sustain when each transaction generates
// recsPerTxn log records.
func (p Params) MaxTransactionRate(recsPerTxn float64) float64 {
	return p.RRecordsLogged() / recsPerTxn
}

// CheckpointRateBest is the best-case checkpoint frequency
// (checkpoints/second) when every active partition accumulates
// N_update records before its checkpoint is triggered by update count:
//
//	R_checkpoint = R_records_logged / N_update
func (p Params) CheckpointRateBest(recordsPerSec float64) float64 {
	return recordsPerSec / p.NUpdate
}

// CheckpointRateWorst is the worst-case frequency, when every active
// partition accumulates only a single page of log records before being
// checkpointed because of age:
//
//	R_checkpoint = R_records_logged * S_log_record / S_log_page
func (p Params) CheckpointRateWorst(recordsPerSec float64) float64 {
	return recordsPerSec * p.SLogRecord / p.SLogPage
}

// CheckpointRate is the mixed-case frequency for given fractions of
// checkpoints triggered by update count (fUpdate) and by age (fAge),
// assuming — as the paper does for comparison purposes — that an
// age-triggered partition accumulated only one page of log records:
//
//	R_ckpt = R_rec * ( f_update/N_update + f_age * S_rec/S_page )
func (p Params) CheckpointRate(recordsPerSec, fUpdate, fAge float64) float64 {
	return recordsPerSec * (fUpdate/p.NUpdate + fAge*p.SLogRecord/p.SLogPage)
}

// CheckpointTxnFraction estimates the share of the total transaction
// load devoted to checkpoint transactions when regular transactions
// write recsPerTxn records each (the paper's 1.5% example: N_update =
// 1000, 60% update-triggered, 10 records/txn).
func (p Params) CheckpointTxnFraction(recordsPerSec, fUpdate, fAge, recsPerTxn float64) float64 {
	ckpt := p.CheckpointRate(recordsPerSec, fUpdate, fAge)
	txns := recordsPerSec / recsPerTxn
	if txns <= 0 {
		return 0
	}
	return ckpt / (ckpt + txns)
}

// MinLogWindowPages is the suggested minimum log window size for a
// given number of active partitions: "there should be at least enough
// pages in the log window to hold N_update log records for every
// active partition."
func (p Params) MinLogWindowPages(activePartitions int) int {
	pagesPerPart := p.NUpdate * p.SLogRecord / p.SLogPage
	return int(pagesPerPart*float64(activePartitions) + 0.5)
}
