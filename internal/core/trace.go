package core

import (
	"mmdb/internal/addr"
	"mmdb/internal/fault"
	"mmdb/internal/trace"
)

// Tracer returns the manager's event tracer (nil when tracing is
// disabled — safe to Emit on regardless).
func (m *Manager) Tracer() *trace.Tracer { return m.tracer }

// CrashTrace returns the previous generation's flight-recorder
// timeline, recovered from stable memory when this manager attached.
// Empty for a fresh database or when the prior generation ran without a
// flight recorder.
func (m *Manager) CrashTrace() []trace.Event {
	return append([]trace.Event(nil), m.crashTrace...)
}

// TraceEvents decodes the current generation's flight ring (what a
// crash right now would preserve).
func (m *Manager) TraceEvents() []trace.Event { return m.tracer.Events() }

// SealTrace writes a final fault-trigger event labelled reason into the
// flight recorder and seals it. DB.Crash uses it so that a forced crash
// leaves the same "trigger event last" shape as an injected one.
func (m *Manager) SealTrace(reason string) {
	m.tracer.EmitLast(trace.Event{Kind: trace.KindFaultTrigger, Str: reason})
}

// pidEvent fills a partition address into a trace event.
func pidEvent(e trace.Event, pid addr.PartitionID) trace.Event {
	e.Seg = uint64(pid.Segment)
	e.Part = uint64(pid.Part)
	return e
}

// wireTrace attaches the tracer to stable memory (recovering any prior
// flight ring as the crash trace) and hooks the fault injector's event
// sink so rule firings land in the timeline; a crash-act firing seals
// the flight recorder with the trigger event as its final entry, and
// releases WaitIdle.
func (m *Manager) wireTrace() error {
	tr, crash, err := trace.Attach(m.hw.Stable, m.cfg.FlightRecorderBytes)
	if err != nil {
		return err
	}
	m.tracer = tr
	m.crashTrace = crash
	if m.inj != nil {
		tracer := tr // captured; may be nil, Emit is nil-safe
		m.inj.SetEventSink(func(p fault.Point, hit int64, act fault.Act) {
			e := trace.Event{
				Kind: trace.KindFaultTrigger,
				Arg:  uint64(hit),
				Str:  string(p) + ":" + act.String(),
			}
			if act.IsCrash() {
				tracer.EmitLast(e)
				m.crashed.Store(true)
				// The faulting goroutine may hold the SLT mutex, which
				// WaitIdle's check takes under idleMu: signal from aside.
				go m.signalIdle()
			} else {
				tracer.Emit(e)
			}
		})
	}
	return nil
}
