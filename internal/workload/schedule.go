package workload

import "fmt"

// Schedule is the serializable description of the workload a recorded
// run consumed — enough, together with the program and fault plan, to
// re-drive the identical run (the cycle domain is deterministic, so
// recording the schedule's parameters records the schedule). A
// closed-loop schedule is its driver parameters; an open-loop schedule
// is the OpenConfig plus the seed its arrival clock was drawn from — the
// pre-drawn arrival times are a pure function of both.
type Schedule struct {
	// Kind is "closed" (Driver.Run) or "open" (Driver.RunOpen).
	Kind string `json:"kind"`

	// Proto selects the request generator via ForProtocol.
	Proto string `json:"proto"`

	// Seed is the driver seed (per-client rngs are Seed^clientID; the
	// open-loop arrival clock is Seed^openScheduleSeed).
	Seed int64 `json:"seed"`

	// Requests is the closed-loop request total (Driver.Run argument).
	Requests int `json:"requests,omitempty"`

	// Concurrency, StepBudget and StallCycles mirror the Driver fields;
	// zero means the driver default, recorded as zero so a replayed
	// driver resolves the same default.
	Concurrency int   `json:"concurrency,omitempty"`
	StepBudget  int64 `json:"step_budget,omitempty"`
	StallCycles int64 `json:"stall_cycles,omitempty"`

	// TraceBase is the driver's trace-ID base for this run (supervised
	// campaigns thread it across incarnations).
	TraceBase int64 `json:"trace_base,omitempty"`

	// Open holds the open-loop parameters when Kind is "open".
	Open *OpenConfig `json:"open,omitempty"`
}

// Driver builds a closed-loop driver configured exactly as the schedule
// records (OS, machine/server wiring is the caller's). Open-loop
// schedules configure the same driver; the caller passes Open to RunOpen.
func (sc Schedule) Driver() Driver {
	return Driver{
		Gen:         ForProtocol(sc.Proto),
		Concurrency: sc.Concurrency,
		Seed:        sc.Seed,
		StepBudget:  sc.StepBudget,
		StallCycles: sc.StallCycles,
		TraceBase:   sc.TraceBase,
	}
}

// Validate rejects a schedule no driver run could have recorded: a
// negative request count, concurrency or open-loop size. Zero stays
// legal, since it records "use the driver default". The error names the
// offending field by its JSON path within the schedule.
func (sc Schedule) Validate() error {
	type field struct {
		name string
		v    int
	}
	fields := []field{{"requests", sc.Requests}, {"concurrency", sc.Concurrency}}
	if o := sc.Open; o != nil {
		fields = append(fields,
			field{"open.total", o.Total},
			field{"open.clients", o.Clients},
			field{"open.max_conns", o.MaxConns},
			field{"open.pipeline_depth", o.PipelineDepth},
			field{"open.slow_bytes", o.SlowBytes},
			field{"open.frag_size", o.FragSize},
		)
	}
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("%s is %d, must not be negative", f.name, f.v)
		}
	}
	return nil
}
