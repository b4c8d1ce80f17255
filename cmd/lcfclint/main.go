// Command lcfclint simulates the Clint interconnect of Section 4 end to
// end: sixteen hosts exchanging CRC-protected configuration/grant packets
// with the bulk LCF scheduler every slot, framed bulk data with negative
// acknowledgments and retransmission, and the best-effort quick channel
// with stop-and-wait reliability on top.
//
// Usage:
//
//	lcfclint -slots 20000 -load 0.7
//	lcfclint -corrupt 0.02 -datacorrupt 0.05    # error injection
//	lcfclint -quickload 0.4 -timeout 4          # quick-channel transport
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/clint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lcfclint: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the bulk- and quick-channel report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lcfclint", flag.ExitOnError)
	var (
		slots       = fs.Int("slots", 20000, "slots to simulate")
		load        = fs.Float64("load", 0.7, "bulk-channel offered load per host")
		voqCap      = fs.Int("voqcap", 256, "per-destination VOQ capacity")
		seed        = fs.Uint64("seed", 1, "RNG seed")
		corrupt     = fs.Float64("corrupt", 0, "configuration-frame corruption probability")
		dataCorrupt = fs.Float64("datacorrupt", 0, "bulk-data-frame corruption probability")
		quickLoad   = fs.Float64("quickload", 0.3, "quick-channel offered load per host")
		timeout     = fs.Int("timeout", 4, "quick transport retransmission timeout [slots]")
	)
	_ = fs.Parse(args) // ExitOnError: -h exits 0 and a bad flag 2, as flag.Parse did

	fmt.Fprintf(w, "Clint cluster: %d hosts, %d slots, bulk load %.2f, quick load %.2f\n\n",
		clint.NumPorts, *slots, *load, *quickLoad)

	// ---- Bulk channel ---------------------------------------------------
	c := clint.NewCluster(*load, *voqCap, *seed)
	c.CorruptRate = *corrupt
	c.DataCorruptRate = *dataCorrupt
	for s := 0; s < *slots; s++ {
		if err := c.Step(); err != nil {
			return err
		}
	}
	var crcSeen int64
	for _, h := range c.Hosts {
		crcSeen += h.CRCErrSeen
	}
	fmt.Fprintf(w, "bulk channel (LCF-scheduled, 3-stage pipeline):\n")
	fmt.Fprintf(w, "  delivered:        %d cells (%.3f per host-slot)\n",
		c.Delivered, float64(c.Delivered)/float64(*slots*clint.NumPorts))
	fmt.Fprintf(w, "  mean delay:       %.2f slots (generation → acknowledgment)\n", c.MeanDelay())
	fmt.Fprintf(w, "  backlog at end:   %d cells\n", c.Backlog())
	fmt.Fprintf(w, "  drops (VOQ full): %d\n", c.DroppedFull)
	fmt.Fprintf(w, "  cfg CRC errors:   %d flagged in grant packets\n", crcSeen)
	fmt.Fprintf(w, "  data NACKs:       %d (%d retransmissions)\n", c.NACKs, c.Retransmissions)
	fmt.Fprintf(w, "  scheduler cycles: %d clock cycles total (5n+3 per slot)\n\n",
		c.Bulk.HW().TotalCycles)

	// ---- Quick channel --------------------------------------------------
	qn := clint.NewQuickNetwork(*quickLoad, *timeout, *seed+1)
	for s := 0; s < *slots; s++ {
		qn.Step()
	}
	var sent, delivered, retries int64
	for _, tr := range qn.Transports {
		sent += tr.Stats.Sent
		delivered += tr.Stats.Delivered
		retries += tr.Stats.Retries
	}
	fmt.Fprintf(w, "quick channel (best effort + stop-and-wait transport):\n")
	fmt.Fprintf(w, "  messages sent:    %d (%d delivered, %d outstanding)\n",
		sent, delivered, sent-delivered)
	fmt.Fprintf(w, "  retransmissions:  %d (%.1f%% of sends)\n",
		retries, 100*float64(retries)/float64(sent))
	fmt.Fprintf(w, "  duplicates seen:  %d (suppressed by sequence numbers)\n",
		qn.DuplicateDeliveries)
	return nil
}
