package flux

import (
	"testing"

	"flux/internal/xmark"
)

// joinoptQuery is the Example 4.6 join of examples/joinopt.
const joinoptQuery = `<results>
{ for $bib in $ROOT/bib return
  { for $article in $bib/article return
    { for $book in $bib/book
      where $article/author = $book/editor return
      { <result> {$article/author} </result> } }}}
</results>`

const joinoptInterleavedDTD = `
<!ELEMENT bib (book|article)*>
<!ELEMENT book (title,(author+|editor+),publisher)>
<!ELEMENT article (title,author+,journal)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT editor (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
`

// TestJoinProbePlans pins the plan text of the buffered joins: one
// index line per probed loop, hash for q8's and the joinopt equality,
// sorted with the operator mirrored for q11's loop side on the right.
func TestJoinProbePlans(t *testing.T) {
	cases := []struct {
		name, query, dtd, want string
	}{
		{"q8", xmark.Queries["q8"], xmark.DTD, `scope $ROOT (element #document)
  on-first past()
  on site as $site
    scope $site (element site)
      buffer tree:
        $site
          closed_auctions
            closed_auction •
          people
            person
              name •
              person_id •
      on-first past(closed_auctions,people)
        index hash: $t/buyer/buyer_person = $p/person_id
  on-first past(site)
`},
		{"q11", xmark.Queries["q11"], xmark.DTD, `scope $ROOT (element #document)
  on-first past()
  on site as $site
    scope $site (element site)
      buffer tree:
        $site
          open_auctions
            open_auction
              initial •
              open_auction_id •
          people
            person
              name •
              profile
                profile_income •
      on-first past(open_auctions,people)
        index sorted: (5000 * $o/initial) < $p/profile/profile_income
  on-first past(site)
`},
		{"joinopt", joinoptQuery, joinoptInterleavedDTD, `scope $ROOT (element #document)
  on-first past()
  on bib as $bib
    scope $bib (element bib)
      buffer tree:
        $bib
          article
            author •
          book
            editor •
      on-first past(article,book)
        index hash: $book/editor = $article/author
  on-first past(bib)
`},
	}
	for _, c := range cases {
		q, err := Prepare(c.query, c.dtd)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := q.PlanText(); got != c.want {
			t.Errorf("%s plan:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
}

// TestJoinIndexBytes: on the 512 KB benchmark document the joins q8 and
// q11 report their index bytes in a column of their own, the Figure 4
// buffer bytes stay what the nested-loop engine reported, the output
// matches the DOM oracle, and the queries without buffered joins build
// no index.
func TestJoinIndexBytes(t *testing.T) {
	doc := benchDocument(t)
	for _, c := range []struct {
		query       string
		bufferBytes int64
		indexed     bool
	}{
		{"q1", 0, false},
		{"q8", 73114, true},
		{"q11", 30028, true},
		{"q13", 0, false},
		{"q20", 703, false},
	} {
		q, err := Prepare(xmark.Queries[c.query], xmark.DTD)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := q.RunString(doc, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if st.PeakBufferBytes != c.bufferBytes {
			t.Errorf("%s: PeakBufferBytes = %d, want %d", c.query, st.PeakBufferBytes, c.bufferBytes)
		}
		if got := st.IndexBytes > 0; got != c.indexed {
			t.Errorf("%s: IndexBytes = %d, want > 0: %v", c.query, st.IndexBytes, c.indexed)
		}
		want, _, err := q.RunString(doc, Options{Engine: Naive})
		if err != nil {
			t.Fatalf("%s naive: %v", c.query, err)
		}
		if out != want {
			t.Errorf("%s: output differs from the oracle", c.query)
		}
	}
}
