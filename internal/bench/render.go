package bench

import (
	"fmt"
	"io"
	"strings"
)

// WriteFigure renders a figure's series as an aligned text table (one row
// per place count, one column per series), comparable at a glance to the
// paper's plots.
func WriteFigure(w io.Writer, f *Figure) error {
	if _, err := fmt.Fprintf(w, "# %s: %s (%s)\n", f.ID, f.Title, f.YLabel); err != nil {
		return err
	}
	header := []string{"places"}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintf(w, "%s\n", strings.Join(header, "\t")); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	for i, pt := range f.Series[0].Points {
		cols := []string{fmt.Sprintf("%d", pt.Places)}
		for _, s := range f.Series {
			cols = append(cols, fmt.Sprintf("%.2f", s.Points[i].Mean))
		}
		if _, err := fmt.Fprintf(w, "%s\n", strings.Join(cols, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteLOCTable renders Table II.
func WriteLOCTable(w io.Writer, rows []LOCRow) error {
	fmt.Fprintln(w, "# table2: Lines of code, non-resilient vs resilient (the resilient program is the plain one plus a file adding checkpoint and restore)")
	fmt.Fprintln(w, "application\tnon-resilient total\tresilient total\tisFinished\tcheckpoint\trestore")
	for _, r := range rows {
		_, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.App, r.NonResilientTotal, r.ResilientTotal, r.IsFinishedLOC, r.CheckpointLOC, r.RestoreLOC)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCheckpointTable renders Table III.
func WriteCheckpointTable(w io.Writer, rows []CheckpointRow) error {
	fmt.Fprintln(w, "# table3: Mean time per checkpoint (ms)")
	fmt.Fprintf(w, "places")
	for _, app := range Apps {
		fmt.Fprintf(w, "\t%s", app)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%d", r.Places)
		for _, app := range Apps {
			fmt.Fprintf(w, "\t%.1f", r.MeanMS[app])
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WritePercentTable renders Table IV.
func WritePercentTable(w io.Writer, rows []PercentRow, places int) error {
	fmt.Fprintf(w, "# table4: %% of total time in checkpoint (C%%) and restore (R%%) at %d places\n", places)
	fmt.Fprintln(w, "application\tshrink C%\tshrink R%\tshrink-rebalance C%\tshrink-rebalance R%\treplace-redundant C%\treplace-redundant R%")
	for _, r := range rows {
		s := r.Pct["shrink"]
		sr := r.Pct["shrink-rebalance"]
		rr := r.Pct["replace-redundant"]
		_, err := fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.App, s[0], s[1], sr[0], sr[1], rr[0], rr[1])
		if err != nil {
			return err
		}
	}
	return nil
}
