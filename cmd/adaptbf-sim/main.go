// Command adaptbf-sim runs one simulation scenario and prints its
// timelines and summary.
//
// Scenarios come from a JSON file (-config) or, without one, a built-in
// two-job demo. Example config:
//
//	{
//	  "policy": "adaptbf",
//	  "maxTokenRate": 500,
//	  "periodMs": 100,
//	  "osts": 1,
//	  "durationSec": 600,
//	  "jobs": [
//	    {"id": "ior.n01", "nodes": 4, "procs": [
//	      {"fileMiB": 1024, "count": 16}
//	    ]},
//	    {"id": "fb.n02", "nodes": 1, "procs": [
//	      {"fileMiB": 1024, "burstRPCs": 64, "burstIntervalSec": 5, "count": 2}
//	    ]}
//	  ]
//	}
//
// Usage:
//
//	adaptbf-sim [-config scenario.json] [-policy nobw|static|adaptbf] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"adaptbf"
	"adaptbf/internal/config"
	"adaptbf/internal/metrics"
	"adaptbf/internal/policy"
	"adaptbf/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptbf-sim: ")
	configPath := flag.String("config", "", "scenario JSON file (omit for the built-in demo)")
	policyFlag := flag.String("policy", "", "override the policy: "+policy.Flags())
	csvPath := flag.String("csv", "", "also write the timeline as CSV to this file")
	width := flag.Int("width", 72, "sparkline width")
	flag.Parse()

	var scenario adaptbf.Scenario
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		scenario, err = config.Parse(data)
		if err != nil {
			log.Fatalf("parsing %s: %v", *configPath, err)
		}
	} else {
		scenario = config.Demo(adaptbf.PolicyAdapTBF)
	}
	if *policyFlag != "" {
		pol, err := config.ParsePolicy(*policyFlag)
		if err != nil {
			log.Fatal(err)
		}
		scenario.Policy = pol
		if *configPath == "" {
			scenario = config.Demo(pol)
		}
	}

	res, err := adaptbf.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy: %v   simulated: %.1fs   done: %v   RPCs served: %d\n\n",
		res.Policy, res.Elapsed.Seconds(), res.Done, res.ServedRPCs)
	metrics.RenderTimeline(os.Stdout, "throughput", res.Timeline, *width)
	fmt.Println()

	sum := res.Timeline.Summarize()
	rows := [][]string{}
	for _, job := range res.Timeline.Jobs() {
		js := sum.PerJob[job]
		finish := "-"
		if ft, ok := res.FinishTimes[job]; ok {
			finish = fmt.Sprintf("%.1f", ft.Seconds())
		}
		rows = append(rows, []string{job,
			metrics.FormatMiBps(js.AvgMiBps),
			fmt.Sprintf("%.0f", js.TotalMiB),
			finish,
		})
	}
	rows = append(rows, []string{"overall", metrics.FormatMiBps(sum.OverallMiBps),
		fmt.Sprintf("%.0f", float64(res.Timeline.GrandTotalBytes())/(1<<20)),
		fmt.Sprintf("%.1f", sum.Makespan.Seconds())})
	metrics.RenderTable(os.Stdout, []string{"job", "avg MiB/s", "total MiB", "finish (s)"}, rows)

	if res.Policy == sim.AdapTBF && len(res.TickTimes) > 0 {
		var tick, alloc time.Duration
		for i := range res.TickTimes {
			tick += res.TickTimes[i]
			alloc += res.AllocTimes[i]
		}
		n := time.Duration(len(res.TickTimes))
		fmt.Printf("\ncontroller: %d cycles, mean cycle %v (allocation %v), %d rule ops\n",
			len(res.TickTimes), tick/n, alloc/n, res.RuleOps)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := metrics.TimelineCSV(f, res.Timeline); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntimeline written to %s\n", *csvPath)
	}
}
