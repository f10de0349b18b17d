# Smoke test: run pta_csv_tool over the checked-in Fig. 1 fixture and
# compare its stdout against the golden file byte-for-byte. The same query
# is repeated over two mangled variants of the fixture — CRLF line endings
# and a missing trailing newline on the last row — which must produce the
# identical golden output (input hardening).
# Expects -DTOOL=, -DFIXTURE_DIR=, -DOUT_DIR=.

function(run_tool input output)
  execute_process(
    COMMAND ${TOOL}
            --input ${input}
            --schema Empl:string,Proj:string,Sal:double
            --group-by Proj
            --agg avg:Sal:AvgSal
            --size 4
    OUTPUT_FILE ${output}
    ERROR_VARIABLE tool_stderr
    RESULT_VARIABLE tool_rc
  )
  if(NOT tool_rc EQUAL 0)
    message(FATAL_ERROR
            "pta_csv_tool on ${input} exited with ${tool_rc}: ${tool_stderr}")
  endif()
endfunction()

function(compare_with_golden actual label)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${actual} ${FIXTURE_DIR}/proj_golden.csv
    RESULT_VARIABLE diff_rc
  )
  if(NOT diff_rc EQUAL 0)
    file(READ ${actual} actual_text)
    file(READ ${FIXTURE_DIR}/proj_golden.csv expected)
    message(FATAL_ERROR "${label}: output differs from golden file.\n"
                        "--- expected ---\n${expected}\n"
                        "--- actual ---\n${actual_text}")
  endif()
endfunction()

# 1. The pristine LF fixture.
run_tool(${FIXTURE_DIR}/proj.csv ${OUT_DIR}/csv_tool_out.csv)
compare_with_golden(${OUT_DIR}/csv_tool_out.csv "LF fixture")

# 2. CRLF line endings (as exported by Windows tools).
file(READ ${FIXTURE_DIR}/proj.csv lf_text)
string(REPLACE "\n" "\r\n" crlf_text "${lf_text}")
file(WRITE ${OUT_DIR}/proj_crlf.csv "${crlf_text}")
run_tool(${OUT_DIR}/proj_crlf.csv ${OUT_DIR}/csv_tool_out_crlf.csv)
compare_with_golden(${OUT_DIR}/csv_tool_out_crlf.csv "CRLF fixture")

# 3. Missing trailing newline on the last row.
string(REGEX REPLACE "\n$" "" chopped_text "${lf_text}")
file(WRITE ${OUT_DIR}/proj_chopped.csv "${chopped_text}")
run_tool(${OUT_DIR}/proj_chopped.csv ${OUT_DIR}/csv_tool_out_chopped.csv)
compare_with_golden(${OUT_DIR}/csv_tool_out_chopped.csv
                    "missing-trailing-newline fixture")

# 4. The PTA-QL path must reproduce the flag path byte-for-byte: the same
# aggregation written as a query statement, against the same golden.
execute_process(
  COMMAND ${TOOL}
          --input ${FIXTURE_DIR}/proj.csv
          --schema Empl:string,Proj:string,Sal:double
          --query "SELECT AVG(Sal) AS AvgSal FROM input GROUP BY Proj BUDGET SIZE 4"
  OUTPUT_FILE ${OUT_DIR}/csv_tool_out_ql.csv
  ERROR_VARIABLE tool_stderr
  RESULT_VARIABLE tool_rc
)
if(NOT tool_rc EQUAL 0)
  message(FATAL_ERROR "--query run exited with ${tool_rc}: ${tool_stderr}")
endif()
if(NOT tool_stderr MATCHES "query stats: engine=exact_dp input=5 ")
  message(FATAL_ERROR "--query run did not report stats: ${tool_stderr}")
endif()
compare_with_golden(${OUT_DIR}/csv_tool_out_ql.csv "PTA-QL query")

# 5. The exit-code contract: usage errors — malformed flags and malformed
# or unbindable queries — exit 2 with a one-line diagnostic on stderr;
# query diagnostics carry a <line>:<col> location.
function(expect_usage_error label stderr_regex)
  execute_process(
    COMMAND ${TOOL} ${ARGN}
    OUTPUT_VARIABLE tool_stdout
    ERROR_VARIABLE tool_stderr
    RESULT_VARIABLE tool_rc
  )
  if(NOT tool_rc EQUAL 2)
    message(FATAL_ERROR
            "${label}: expected exit code 2, got ${tool_rc}: ${tool_stderr}")
  endif()
  if(NOT tool_stderr MATCHES "${stderr_regex}")
    message(FATAL_ERROR "${label}: stderr does not match '${stderr_regex}':\n"
                        "${tool_stderr}")
  endif()
endfunction()

expect_usage_error("unknown flag" "^error: unknown flag: --frobnicate"
                   --frobnicate)
expect_usage_error("missing flag value" "^error: "
                   --input)
expect_usage_error("query parse error"
                   "^error: .* at [0-9]+:[0-9]+\n"
                   --input ${FIXTURE_DIR}/proj.csv
                   --schema Empl:string,Proj:string,Sal:double
                   --query "SELECT AVG(Sal) FROM input BUDGET SIZE")
expect_usage_error("query bind error"
                   "^error: unknown column 'Bogus' at [0-9]+:[0-9]+\n"
                   --input ${FIXTURE_DIR}/proj.csv
                   --schema Empl:string,Proj:string,Sal:double
                   --query "SELECT AVG(Bogus) FROM input BUDGET SIZE 4")
expect_usage_error("query and flag mode mixed" "^error: "
                   --input ${FIXTURE_DIR}/proj.csv
                   --schema Empl:string,Proj:string,Sal:double
                   --agg avg:Sal:AvgSal
                   --query "SELECT AVG(Sal) FROM input BUDGET SIZE 4")

# 6. The persistence loop (docs/PERSISTENCE.md). --save-index runs the
# query on the recorded merge-tree engine and persists the dendrogram;
# --load-index answers budgets from the file alone, without the input CSV.
# Its cuts are greedy (not exact DP), hence the separate golden.
function(compare_files a b label)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff_rc
  )
  if(NOT diff_rc EQUAL 0)
    file(READ ${a} a_text)
    file(READ ${b} b_text)
    message(FATAL_ERROR "${label}: outputs differ.\n"
                        "--- ${a} ---\n${a_text}\n"
                        "--- ${b} ---\n${b_text}")
  endif()
endfunction()

function(run_index_tool output)
  execute_process(
    COMMAND ${TOOL} ${ARGN}
    OUTPUT_FILE ${output}
    ERROR_VARIABLE tool_stderr
    RESULT_VARIABLE tool_rc
  )
  if(NOT tool_rc EQUAL 0)
    message(FATAL_ERROR
            "pta_csv_tool ${ARGN} exited with ${tool_rc}: ${tool_stderr}")
  endif()
endfunction()

# Save: build + persist the index, emit the size-4 cut.
run_index_tool(${OUT_DIR}/csv_tool_save.csv
               --input ${FIXTURE_DIR}/proj.csv
               --schema Empl:string,Proj:string,Sal:double
               --group-by Proj --agg avg:Sal:AvgSal --size 4
               --save-index ${OUT_DIR}/csv_tool_proj.ptaidx)
compare_files(${OUT_DIR}/csv_tool_save.csv
              ${FIXTURE_DIR}/proj_index_golden.csv "--save-index emit")

# Reload at the same budget: byte-identical to the save-time emit.
run_index_tool(${OUT_DIR}/csv_tool_load.csv
               --load-index ${OUT_DIR}/csv_tool_proj.ptaidx
               --schema Empl:string,Proj:string,Sal:double
               --group-by Proj --size 4)
compare_files(${OUT_DIR}/csv_tool_load.csv
              ${FIXTURE_DIR}/proj_index_golden.csv "--load-index reload")

# Re-budget from the file: byte-identical to a direct run at the new
# budget (the O(k) re-cut answers any budget, not just the saved one).
run_index_tool(${OUT_DIR}/csv_tool_load5.csv
               --load-index ${OUT_DIR}/csv_tool_proj.ptaidx
               --schema Empl:string,Proj:string,Sal:double
               --group-by Proj --size 5)
run_index_tool(${OUT_DIR}/csv_tool_direct5.csv
               --input ${FIXTURE_DIR}/proj.csv
               --schema Empl:string,Proj:string,Sal:double
               --group-by Proj --agg avg:Sal:AvgSal --size 5
               --save-index ${OUT_DIR}/csv_tool_proj5.ptaidx)
compare_files(${OUT_DIR}/csv_tool_load5.csv ${OUT_DIR}/csv_tool_direct5.csv
              "--load-index re-budget vs direct run")

# 7. The exit-2 stderr contract for a corrupt index file, plus the
# --load-index flag-combination rules. (Bit-level corruption is fuzzed
# exhaustively in index_io_fuzz_test; this checks the CLI surface.)
file(WRITE ${OUT_DIR}/csv_tool_corrupt.ptaidx "this is not an index file")
expect_usage_error("corrupt index file" "^error: not a PTA index file"
                   --load-index ${OUT_DIR}/csv_tool_corrupt.ptaidx --size 4)
expect_usage_error("flag conflict with --load-index" "^error: --load-index"
                   --load-index ${OUT_DIR}/csv_tool_proj.ptaidx
                   --input ${FIXTURE_DIR}/proj.csv --size 4)
expect_usage_error("--load-index without a budget" "^error: a budget"
                   --load-index ${OUT_DIR}/csv_tool_proj.ptaidx)
expect_usage_error("--save-index in query mode" "^error: --save-index"
                   --input ${FIXTURE_DIR}/proj.csv
                   --schema Empl:string,Proj:string,Sal:double
                   --save-index ${OUT_DIR}/csv_tool_never.ptaidx
                   --query "SELECT AVG(Sal) FROM input BUDGET SIZE 4")

# A missing index file is a runtime failure (exit 1), not a usage error.
execute_process(
  COMMAND ${TOOL} --load-index ${OUT_DIR}/csv_tool_missing.ptaidx --size 4
  OUTPUT_VARIABLE tool_stdout
  ERROR_VARIABLE tool_stderr
  RESULT_VARIABLE tool_rc
)
if(NOT tool_rc EQUAL 1)
  message(FATAL_ERROR
          "missing index file: expected exit code 1, got ${tool_rc}:"
          " ${tool_stderr}")
endif()

# 8. Non-finite aggregate inputs are rejected, not propagated: one NaN
# salary must fail the run with a diagnostic naming the attribute and the
# tuple, instead of printing poisoned averages and maxima.
string(REPLACE ",400,3,6" ",nan,3,6" nan_text "${lf_text}")
file(WRITE ${OUT_DIR}/proj_nan.csv "${nan_text}")
foreach(agg avg:Sal:AvgSal max:Sal:MaxSal)
  execute_process(
    COMMAND ${TOOL}
            --input ${OUT_DIR}/proj_nan.csv
            --schema Empl:string,Proj:string,Sal:double
            --group-by Proj --agg ${agg} --size 3
    OUTPUT_VARIABLE tool_stdout
    ERROR_VARIABLE tool_stderr
    RESULT_VARIABLE tool_rc
  )
  if(tool_rc EQUAL 0)
    message(FATAL_ERROR "NaN cell (${agg}): expected a non-zero exit, got 0:"
                        "\n${tool_stdout}")
  endif()
  if(NOT tool_stderr MATCHES "'Sal' of tuple 1 is not finite")
    message(FATAL_ERROR "NaN cell (${agg}): unexpected stderr:\n${tool_stderr}")
  endif()
endforeach()

# 9. A NaN grouping value has no place in the group order: grouping by the
# same poisoned column must fail the run, naming the attribute and the
# tuple, instead of splitting or merging groups arbitrarily.
execute_process(
  COMMAND ${TOOL}
          --input ${OUT_DIR}/proj_nan.csv
          --schema Empl:string,Proj:string,Sal:double
          --group-by Sal --agg count:N --size 3
  OUTPUT_VARIABLE tool_stdout
  ERROR_VARIABLE tool_stderr
  RESULT_VARIABLE tool_rc
)
if(tool_rc EQUAL 0)
  message(FATAL_ERROR "NaN group-by cell: expected a non-zero exit, got 0:"
                      "\n${tool_stdout}")
endif()
if(NOT tool_stderr MATCHES "grouping attribute 'Sal' of tuple 1 is NaN")
  message(FATAL_ERROR "NaN group-by cell: unexpected stderr:\n${tool_stderr}")
endif()
