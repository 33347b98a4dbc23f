package main

import (
	"fmt"
	"time"
)

// refNominalS is the reference kernel's median on the reference host (2
// vCPUs, go1.24, linux/amd64). Time metrics are multiplied by
// refNominalS / (reference samples around the run; see runRef), so they
// read as seconds on that host whatever the speed of the host at the time.
const refNominalS = 0.013

// refRoundTrips sizes the reference kernel.
const refRoundTrips = 20_000

// refKernel is the host-speed yardstick. It imports nothing from the
// repository, so no change to the simulator moves it. Its mix is the serial
// engine's: goroutine handoffs over unbuffered channels (the cost of every
// simulated process switch), fmt.Sprintf map keys and small allocations.
func refKernel() float64 {
	start := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	m := make(map[string][]byte, 512)
	for i := 0; i < refRoundTrips; i++ {
		ping <- i
		v := <-pong
		m[fmt.Sprintf("cmeta/%d", v%512)] = make([]byte, 64)
	}
	close(ping)
	<-pong // the echo goroutine has exited once pong is closed
	return time.Since(start).Seconds()
}
