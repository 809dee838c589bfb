package core

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV writers: each experiment result can dump its full dataset as CSV
// so the paper's figures can be re-plotted with external tooling
// (cmd/learnability -csv <dir>).

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV dumps the Figure 1 dataset.
func (r *CalibrationResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Protocol, f(row.MedianTptBps), f(row.MedianDelaySec),
			f(row.StdTptBps), f(row.StdDelaySec), f(row.MeanObjective),
		})
	}
	return writeCSV(w, []string{"protocol", "median_tpt_bps", "median_queue_delay_s",
		"std_tpt_bps", "std_delay_s", "mean_objective"}, rows)
}

// WriteCSV dumps the Figure 6 dataset in long form.
func (r *StructureResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, s := range r.Series {
		for i, mbps := range r.SpeedsMbps {
			rows = append(rows, []string{s.Protocol, f(mbps),
				f(s.EqualTptMbps[i]), f(s.Fast100TptMbps[i])})
		}
	}
	return writeCSV(w, []string{"protocol", "slower_link_mbps",
		"flow1_tpt_mbps_equal", "flow1_tpt_mbps_fast100"}, rows)
}

// WriteCSV dumps the Figure 7 dataset.
func (r *TCPAwareResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Setting, row.Protocol,
			f(row.MedianTptBps), f(row.MedianDelaySec),
			f(row.StdTptBps), f(row.StdDelaySec)})
	}
	return writeCSV(w, []string{"setting", "protocol", "median_tpt_bps",
		"median_queue_delay_s", "std_tpt_bps", "std_delay_s"}, rows)
}

// WriteCSV dumps both Figure 8 time series in long form (drop rows
// carry an empty queue_pkts field).
func (r *TimeDomainResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, tr := range r.Traces {
		for i, at := range tr.SampleSec {
			rows = append(rows, []string{tr.Protocol, "sample", f(at),
				strconv.Itoa(tr.QueuePkts[i])})
		}
		for _, at := range tr.DropSec {
			rows = append(rows, []string{tr.Protocol, "drop", f(at), ""})
		}
	}
	return writeCSV(w, []string{"protocol", "kind", "time_s", "queue_pkts"}, rows)
}

// WriteCSV dumps the Figure 9 dataset.
func (r *DiversityResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Training, row.Setting, row.Sender,
			f(row.TptMbps), f(row.QueueMs)})
	}
	return writeCSV(w, []string{"training", "setting", "sender",
		"tpt_mbps", "queue_delay_ms"}, rows)
}

// WriteCSV dumps the §3.4 dataset.
func (r *KnockoutResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, row.Removed,
			f(row.MeanObjective), f(row.TptMbps), f(row.DelayMs)})
	}
	return writeCSV(w, []string{"protocol", "signal_removed",
		"mean_objective", "tpt_mbps", "delay_ms"}, rows)
}
