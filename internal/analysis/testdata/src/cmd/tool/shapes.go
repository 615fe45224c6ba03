package main

import (
	"fixture.test/internal/arenause"
	"fixture.test/internal/broker"
	"fixture.test/internal/core"
	"fixture.test/internal/deadexp"
	"fixture.test/internal/lending"
	"fixture.test/internal/lockuse"
	"fixture.test/internal/model"
	"fixture.test/internal/tensor"
)

// The other analyzers' seeds under internal/ have no callers of their
// own; this reference gives each one, so that deadexport reports only
// the seeds in internal/deadexp.
var _ = []any{
	arenause.UseAfterRecycle, arenause.RecycleOnOnePath, arenause.LeakOnEarlyReturn,
	arenause.UseAfterReset, arenause.PingPong, arenause.DeferredReset, arenause.StoreTransfers,
	broker.Stamp, broker.Wait, broker.DefaultClock, broker.Poll, broker.Fetch, broker.Idle,
	broker.DecodeCopy,
	core.Run,
	lending.Sum, lending.Retain, lending.Publish, lending.Handoff, lending.AliasedRetain,
	lending.Scratch, lending.BadName, lending.MissingName,
	lockuse.Promote, lockuse.Audit, lockuse.Relock, lockuse.SendUnderLock, lockuse.PollUnderLock,
	lockuse.SleepUnderLock, lockuse.ModelledSleepUnderLock, lockuse.WaitUnderLock, lockuse.CallUnderLock, lockuse.PacedRetire,
	lockuse.Snapshot, lockuse.TryDrain, lockuse.Elect, lockuse.Announce, lockuse.AwaitHW,
	lockuse.AwaitHWUnderLock,
	model.AttnInto, model.Forward,
	(*tensor.Arena).Wrap, tensor.ScaleInto, tensor.QScaleInto, tensor.PackRHS, tensor.UsesEngine,
}

// The deadexport seeds' product callers.
var (
	_ = deadexp.Used
	_ = deadexp.Open().Close
	_ = deadexp.Settings{Rate: 1}
)
