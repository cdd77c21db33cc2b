// Package accounting implements the RPN-side resource-usage accounting model
// of §3.5: every charging entity (service subscriber) owns a set of
// processes; the kernel-side drivers charge CPU time, disk-channel time and
// network bytes to individual processes; and once per accounting cycle the
// accountant traverses the process tree, attributes each process's usage to
// its owning entity, and emits the accounting message the RDN consumes.
//
// Because processes are attributed through parent-child links, the model
// automatically covers dynamically spawned workers and CGI children with no
// extra mechanism — the property the paper calls out.
package accounting

import (
	"errors"
	"fmt"
	"sync"

	"gage/internal/core"
	"gage/internal/qos"
)

// ProcessID identifies one process on the RPN.
type ProcessID int

// Accounting errors.
var (
	// ErrUnknownProcess reports an operation on a process that does not exist.
	ErrUnknownProcess = errors.New("accounting: unknown process")
	// ErrHasChildren reports an Exit on a process with live children.
	ErrHasChildren = errors.New("accounting: process has live children")
)

// process is one tracked process: its parent link and usage accumulated
// since the last accounting cycle.
type process struct {
	parent ProcessID // 0 for entity roots
	entity qos.SubscriberID
	delta  qos.Vector
	kids   int
}

// Accountant tracks per-process usage on one RPN and aggregates it per
// charging entity every accounting cycle. It is safe for concurrent use.
type Accountant struct {
	mu sync.Mutex

	node   core.NodeID
	nextID ProcessID
	procs  map[ProcessID]*process

	// pending holds usage of processes that exited mid-cycle, and request
	// completion counts, keyed by entity.
	pending   map[qos.SubscriberID]qos.Vector
	completed map[qos.SubscriberID]int

	// cumulative per-entity usage and completion counts across all cycles.
	cumulative     map[qos.SubscriberID]qos.Vector
	cumCompleted   map[qos.SubscriberID]int
	totalAttribute qos.Vector
}

// NewAccountant returns an accountant reporting as the given node.
func NewAccountant(node core.NodeID) *Accountant {
	return &Accountant{
		node:         node,
		procs:        make(map[ProcessID]*process),
		pending:      make(map[qos.SubscriberID]qos.Vector),
		completed:    make(map[qos.SubscriberID]int),
		cumulative:   make(map[qos.SubscriberID]qos.Vector),
		cumCompleted: make(map[qos.SubscriberID]int),
	}
}

// Launch creates the first process of a charging entity — the paper's
// "when a charging entity is launched, Gage records the first process
// associated with the entity".
func (a *Accountant) Launch(entity qos.SubscriberID) ProcessID {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	pid := a.nextID
	a.procs[pid] = &process{entity: entity}
	return pid
}

// Spawn creates a child of an existing process. The child is attributed to
// the parent's entity through the process tree.
func (a *Accountant) Spawn(parent ProcessID) (ProcessID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.procs[parent]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownProcess, parent)
	}
	a.nextID++
	pid := a.nextID
	a.procs[pid] = &process{parent: parent}
	p.kids++
	return pid, nil
}

// Exit removes a process, folding its uncollected usage into its entity's
// pending bucket so no usage is lost between cycles. Processes with live
// children cannot exit (ErrHasChildren): the tree must stay attributable.
func (a *Accountant) Exit(pid ProcessID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.procs[pid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownProcess, pid)
	}
	if p.kids > 0 {
		return fmt.Errorf("%w: %d", ErrHasChildren, pid)
	}
	entity, err := a.entityOfLocked(pid)
	if err != nil {
		return err
	}
	if !p.delta.IsZero() {
		a.pending[entity] = a.pending[entity].Add(p.delta)
	}
	if p.parent != 0 {
		if pp, ok := a.procs[p.parent]; ok {
			pp.kids--
		}
	}
	delete(a.procs, pid)
	return nil
}

// Charge attributes resource usage to a process, as the kernel's scheduler
// and disk driver do in the paper's prototype.
func (a *Accountant) Charge(pid ProcessID, usage qos.Vector) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.procs[pid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownProcess, pid)
	}
	p.delta = p.delta.Add(usage)
	return nil
}

// CompleteRequest records that one of the entity's requests finished; the
// count rides on the next accounting message so the RDN's predictor can
// compute per-request averages.
func (a *Accountant) CompleteRequest(pid ProcessID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	entity, err := a.entityOfLocked(pid)
	if err != nil {
		return err
	}
	a.completed[entity]++
	return nil
}

// EntityOf resolves the charging entity owning a process by walking its
// ancestry, memoizing the result — the paper's periodic parent-child
// traversal.
func (a *Accountant) EntityOf(pid ProcessID) (qos.SubscriberID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.entityOfLocked(pid)
}

func (a *Accountant) entityOfLocked(pid ProcessID) (qos.SubscriberID, error) {
	p, ok := a.procs[pid]
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrUnknownProcess, pid)
	}
	if p.entity != "" {
		return p.entity, nil
	}
	entity, err := a.entityOfLocked(p.parent)
	if err != nil {
		return "", fmt.Errorf("accounting: resolve %d: %w", pid, err)
	}
	p.entity = entity // memoize
	return entity, nil
}

// Cycle performs one accounting cycle: it traverses all processes, sums each
// entity's usage since the previous cycle (including exited processes'
// residue), zeroes the deltas, and returns the accounting message for the
// RDN. Entities with no activity are omitted.
func (a *Accountant) Cycle() core.UsageReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := core.UsageReport{
		Node:         a.node,
		BySubscriber: make(map[qos.SubscriberID]core.SubscriberUsage),
	}
	a.foldLocked(&rep)
	return rep
}

// foldLocked moves every uncollected delta — live processes' usage, exited
// processes' residue, completion counts — into the cumulative totals, and,
// given a report, sums what it moved into it as well.
func (a *Accountant) foldLocked(rep *core.UsageReport) {
	add := func(entity qos.SubscriberID, usage qos.Vector) {
		if rep != nil {
			u := rep.BySubscriber[entity]
			u.Usage = u.Usage.Add(usage)
			rep.BySubscriber[entity] = u
			rep.Total = rep.Total.Add(usage)
		}
		a.cumulative[entity] = a.cumulative[entity].Add(usage)
		a.totalAttribute = a.totalAttribute.Add(usage)
	}
	for pid, p := range a.procs {
		if p.delta.IsZero() {
			continue
		}
		entity, err := a.entityOfLocked(pid)
		if err != nil {
			continue // orphaned process: unattributable, skip
		}
		add(entity, p.delta)
		p.delta = qos.Vector{}
	}
	for entity, usage := range a.pending {
		add(entity, usage)
		delete(a.pending, entity)
	}
	for entity, n := range a.completed {
		if rep != nil {
			u := rep.BySubscriber[entity]
			u.Completed = n
			rep.BySubscriber[entity] = u
		}
		a.cumCompleted[entity] += n
		delete(a.completed, entity)
	}
}

// CumulativeReport folds any uncollected deltas into the running totals and
// returns the *cumulative* usage and completion counts since the accountant
// started. Unlike Cycle's deltas, cumulative reports are loss-tolerant: a
// reader that misses one can diff the next against its last-seen snapshot
// and lose nothing. The fold goes straight into the totals — no Cycle
// message is built on the way — and the report's map is freshly allocated;
// a sender on a cycle uses CumulativeReportInto.
func (a *Accountant) CumulativeReport() core.UsageReport {
	return a.CumulativeReportInto(nil)
}

// CumulativeReportInto is CumulativeReport with the per-subscriber split
// written into dst (cleared first; nil allocates fresh), so a sender can
// hand back a map its receiver is done with instead of making one per
// message. The caller must own dst: nothing may still read it.
func (a *Accountant) CumulativeReportInto(dst map[qos.SubscriberID]core.SubscriberUsage) core.UsageReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.foldLocked(nil)
	if dst == nil {
		dst = make(map[qos.SubscriberID]core.SubscriberUsage, len(a.cumulative))
	} else {
		clear(dst)
	}
	for entity, usage := range a.cumulative {
		dst[entity] = core.SubscriberUsage{
			Usage:     usage,
			Completed: a.cumCompleted[entity],
		}
	}
	return core.UsageReport{Node: a.node, Total: a.totalAttribute, BySubscriber: dst}
}

// Cumulative returns an entity's total attributed usage across all cycles.
func (a *Accountant) Cumulative(entity qos.SubscriberID) qos.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cumulative[entity]
}

// LiveProcesses returns the number of tracked processes.
func (a *Accountant) LiveProcesses() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.procs)
}
