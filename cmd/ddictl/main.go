// Command ddictl inspects and queries a DDI disk store offline.
//
// Usage:
//
//	ddictl -dir ./vdap-data count
//	ddictl -dir ./vdap-data query -source obd -from 10 -to 3600 -limit 5
//	ddictl -dir ./vdap-data get -id 17
//	ddictl -dir ./vdap-data segments
//	ddictl -dir ./vdap-data agg -column x -from 10 -to 3600
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ddi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddictl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("ddictl", flag.ContinueOnError)
	dir := global.String("dir", "", "DDI store directory")
	if err := global.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("need a subcommand: count | query | get | segments | agg")
	}
	store, err := ddi.OpenDiskStore(*dir)
	if err != nil {
		return err
	}
	defer store.Close()

	switch rest[0] {
	case "count":
		fmt.Println(store.Count())
		return nil
	case "get":
		fs := flag.NewFlagSet("get", flag.ContinueOnError)
		id := fs.Uint64("id", 0, "record ID")
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		rec, ok := store.Get(*id)
		if !ok {
			return fmt.Errorf("record %d not found", *id)
		}
		printRecord(rec)
		return nil
	case "query":
		fs := flag.NewFlagSet("query", flag.ContinueOnError)
		source := fs.String("source", "", "source filter (obd, gps, weather, traffic, social, user)")
		from := fs.Float64("from", 0, "window start, virtual seconds")
		to := fs.Float64("to", 0, "window end, virtual seconds (0 = open)")
		limit := fs.Int("limit", 20, "max records")
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		q := ddi.Query{
			Source: ddi.Source(*source),
			From:   time.Duration(*from * float64(time.Second)),
			To:     time.Duration(*to * float64(time.Second)),
			Limit:  *limit,
		}
		it := store.Scan(q)
		n := 0
		for it.Next() {
			printRecord(*it.Record())
			n++
		}
		if err := it.Err(); err != nil {
			return err
		}
		fmt.Printf("%d record(s)\n", n)
		return nil
	case "segments":
		zms := store.Segments()
		for i, zm := range zms {
			srcs := ""
			for j, s := range zm.Sources {
				if j > 0 {
					srcs += ","
				}
				srcs += string(s)
			}
			fmt.Printf("seg %-3d rows=%-7d at=[%v, %v] ids=[%d, %d] box=(%.1f,%.1f)..(%.1f,%.1f) sources=%s\n",
				i, zm.Count, zm.MinAt, zm.MaxAt, zm.MinID, zm.MaxID,
				zm.MinX, zm.MinY, zm.MaxX, zm.MaxY, srcs)
		}
		fmt.Printf("%d segment(s), %d unsealed record(s)\n", len(zms), unsealed(store, zms))
		return nil
	case "agg":
		fs := flag.NewFlagSet("agg", flag.ContinueOnError)
		source := fs.String("source", "", "source filter (obd, gps, weather, traffic, social, user)")
		from := fs.Float64("from", 0, "window start, virtual seconds")
		to := fs.Float64("to", 0, "window end, virtual seconds (0 = open)")
		column := fs.String("column", "at", "column: at | x | y | payload_bytes")
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		col, ok := ddi.ParseColumn(*column)
		if !ok {
			return fmt.Errorf("unknown column %q (want at | x | y | payload_bytes)", *column)
		}
		q := ddi.Query{
			Source: ddi.Source(*source),
			From:   time.Duration(*from * float64(time.Second)),
			To:     time.Duration(*to * float64(time.Second)),
		}
		agg, stats, err := store.Aggregate(q, col)
		if err != nil {
			return err
		}
		fmt.Printf("column=%s count=%d min=%g max=%g mean=%g\n",
			col.String(), agg.Count, agg.Min, agg.Max, agg.Mean)
		fmt.Printf("plan: %d/%d segment(s) pruned (skip ratio %.2f), %d row(s) scanned\n",
			stats.Pruned, stats.Segments, stats.SkipRatio(), stats.RowsScanned)
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// unsealed reports how many records still live in the memtable (i.e. are
// not yet covered by a sealed segment).
func unsealed(store *ddi.DiskStore, zms []ddi.ZoneMap) int {
	n := store.Count()
	for _, zm := range zms {
		n -= zm.Count
	}
	return n
}

func printRecord(r ddi.Record) {
	fmt.Printf("#%d %-8s t=%-10v (%.1f, %.1f) %s\n", r.ID, r.Source, r.At, r.X, r.Y, r.Payload)
}
