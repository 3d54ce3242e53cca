// Realtime: the same channel protocols on actual goroutines and Go sync
// primitives with wall-clock timing — no simulation. The Go scheduler is
// far noisier than the paper's native testbed, so the time parameters are
// milliseconds, but the attack structure is identical: the receiver
// recovers the message purely from how long its waits took.
package main

import (
	"fmt"
	"log"

	"mes/internal/codec"
	"mes/internal/realtime"
)

func main() {
	secret := "live"
	payload := codec.FromString(secret)

	for _, m := range []realtime.Mechanism{realtime.Event, realtime.Mutex, realtime.Semaphore} {
		res, err := realtime.Run(realtime.Config{Mechanism: m, Payload: payload})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v sent %q, received %q  (BER %.2f%%, %.3f kb/s wall clock)\n",
			m, secret, res.ReceivedBits.Text(), res.BER*100, res.TRKbps)
	}
	fmt.Println("\nnote: goroutines stand in for processes; see the internal/realtime package doc")
}
