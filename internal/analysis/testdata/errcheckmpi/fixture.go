// Package fixture exercises the errcheck-mpi analyzer: invisible drops of
// errors returned by the mpi runtime and the timing layer.
package fixture

import (
	"repro/internal/mpi"
	"repro/internal/timing"
)

func dropped() {
	mpi.Run(2, func(c *mpi.Comm) { c.Barrier() })                  // finding
	timing.Measure(func() {}, timing.Protocol{}, timing.Options{}) // finding
	go mpi.Run(1, func(c *mpi.Comm) {})                            // finding
	defer mpi.Run(1, func(c *mpi.Comm) {})                         // finding
	w := mpi.NewWorld(1)
	w.Launch(func(c *mpi.Comm) {}) // finding
}

func handled() error {
	if err := mpi.Run(2, func(c *mpi.Comm) { c.Barrier() }); err != nil {
		return err
	}
	res, err := timing.Measure(func() {}, timing.Protocol{}, timing.Options{})
	_ = res
	_ = mpi.Run(1, func(c *mpi.Comm) {}) // ok: discard is visible in the source
	_ = timing.Once(func() {}, nil)      // ok: Once returns no error
	return err
}

func suppressedDrop() {
	//kcvet:ignore errcheck-mpi fixture demonstrates a justified suppression
	mpi.Run(1, func(c *mpi.Comm) {})
}
