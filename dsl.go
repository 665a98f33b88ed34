package motifstream

import "motifstream/internal/motifdsl"

// CompileMotif compiles declarative motif source (the language of the
// paper's §3 vision) into runnable programs. Example:
//
//	motif "content" {
//	    match A -> B;
//	    match B =[retweet,favorite]=> C within 10m;
//	    where count(B) >= 3;
//	    emit C to A via B;
//	}
//
// Multiple declarations compile to multiple programs. Errors carry
// line:col positions.
func CompileMotif(src string) ([]Program, error) {
	return motifdsl.Compile(src)
}

// registerMotifs compiles src and appends its plans to *motifs, which is
// left as it was when src does not compile. Plans are immutable, so both
// facades run the compiled plans themselves.
func registerMotifs(motifs *[]Program, src string) error {
	progs, err := CompileMotif(src)
	if err != nil {
		return err
	}
	*motifs = append(*motifs, progs...)
	return nil
}

// ExplainMotif returns the human-readable query plan for each declaration
// in src — the paper's "optimized query plan against an online graph
// database", in EXPLAIN form.
func ExplainMotif(src string) ([]string, error) {
	specs, err := motifdsl.Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		p, err := motifdsl.PlanSpec(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p.Describe())
	}
	return out, nil
}
