package pperfmark

import (
	"fmt"
	"strings"
)

// RenderTable formats judged runs like the paper's Tables 2 and 3.
func RenderTable(title string, verdicts []*Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-18s %-8s %-6s %s\n", "Program", "Impl", "Result", "Details")
	for _, v := range verdicts {
		result := "Pass"
		if !v.Pass {
			result = "FAIL"
		} else if v.PaperResult == "Fail" {
			result = "Fail*" // matches the paper's designed failure
		}
		details := strings.Join(v.Details, "; ")
		if v.Skipped != "" {
			result = "skip"
			details = v.Skipped
		}
		if len(v.Problems) > 0 {
			details = "PROBLEMS: " + strings.Join(v.Problems, "; ")
		}
		fmt.Fprintf(&b, "%-18s %-8s %-6s %s\n", v.Program, v.Impl, result, details)
	}
	return b.String()
}
