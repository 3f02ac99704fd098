package repro.bench

import repro.SparkSpec
import repro.bench.Harness.Cell

class TablesSpec extends SparkSpec {

  private def done(v: String) = Cell(v, Some(1.0))

  test("check reports disagreeing numbers, a failed PRG cell, a missing 6-clique and PRG isomorphism checks") {
    val disagree = ("3-Motifs", "MI", Seq("PRG" -> done("10"), "ABQ" -> done("11")))
    val prgFailed = ("4-Cliques", "PA", Seq("PRG" -> Cell("-", None), "FCL" -> done("7")))
    assert(Tables.check("table3", Seq(disagree, prgFailed)).size == 2)
    assert(Tables.check("table3", Seq(disagree)).head.contains("disagree on 3-Motifs/MI"))
    assert(Tables.check("table4", Seq(prgFailed)).head.contains("PRG errored on 4-Cliques/PA"))

    val table6 = Seq(
      ("Exist 14-Clique", "PA", Seq("PRG" -> done("false"))),
      ("Exist 6-Clique", "OK+K6", Seq("PRG" -> done("false"))))
    assert(Tables.check("table6", table6) == Seq("Exist 6-Clique/OK+K6 reads false, expected true"))
    assert(Tables.check("table6", table6.init).size == 1)

    val fig1 = Seq(("4-Clique profile", "PA", Seq(
      "PRG" -> Cell("explored=5 (1.0x) canon=0 iso=1", None),
      "RS" -> done("explored=50 (10.0x) canon=50 iso=50"))))
    assert(Tables.check("fig1", fig1).size == 1)

    val fig10 = Seq(("4-Motifs", "MI", Seq("PRG" -> Cell("9", Some(4.0)), "PRG-U" -> Cell("9", Some(1.9)))))
    assert(Tables.check("fig10", fig10).size == 1)
  }

  test("check passes x, np and non-numeric cells") {
    val table3 = Seq(
      ("3-Motifs", "MI", Seq("PRG" -> done("10"), "ABQ" -> Cell("x", None), "RS" -> Cell("np", None))),
      ("FSM tau=60", "MI", Seq("PRG" -> done("12f"), "ABQ" -> done("5f3"))))
    val table6 = Seq(
      ("Exist 14-Clique", "PA", Seq("PRG" -> done("false"))),
      ("Exist 6-Clique", "OK+K6", Seq("PRG" -> done("true"))))
    val fig1 = Seq(("4-Clique profile", "PA", Seq(
      "PRG" -> Cell("explored=5 (1.0x) canon=0 iso=0", None),
      "FCL" -> done("explored=9 (1.8x) canon=9 iso=0"))))
    assert(Tables.check("table3", table3).isEmpty)
    assert(Tables.check("table6", table6).isEmpty)
    assert(Tables.check("fig1", fig1).isEmpty)
  }

  test("check compares the frequent 3-edge pattern counts of FSM rows") {
    def fsm(prg: String, abq: String) = Seq(("FSM tau=60", "MI", Seq("PRG" -> done(prg), "ABQ" -> done(abq))))
    assert(Tables.check("table3", fsm("417f3", "416f3")).head.contains("disagree on FSM tau=60/MI"))
    assert(Tables.check("table3", fsm("417f3", "417f3")).isEmpty)
  }

  test("Table 2 over 5 %-size lite graphs passes its check") {
    val (rendered, rows) = Tables.table2(new LiteData(spark, 0.05))
    assert(rendered.contains("Table 2"))
    assert(Tables.check("table2", rows).isEmpty)
  }
}
