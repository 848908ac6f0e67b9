// Package window provides the generation ring that makes time a first-class
// dimension of the estimators: k generations of an arbitrary sketch type are
// kept live at once, every observation feeds the newest generation, and an
// epoch boundary — an explicit Rotate, or the current epoch reaching a fixed
// edge count — retires the oldest. A query that sums (or merges) the live
// generations therefore covers between k−1 and k epochs of history, so the
// window slop of the classic two-generation scheme (up to 100% extra
// history) drops to 1/(k−1) for a k-generation ring.
//
// The ring is deliberately ignorant of what a generation is: it is generic
// over the element type and exposes its state only through callbacks run
// under the ring's lock (Feed for the newest generation, View/Snapshot for
// all live ones). That lock is the windowing concurrency contract: a batch
// fed through Feed is attributed to the epoch current when the call started
// and can never be torn across generations by a concurrent Rotate.
//
// Wall-time epochs are the caller's job: a serving layer that rotates every
// few minutes runs its own ticker and calls Rotate, so every shard of a
// partitioned window advances together.
package window
