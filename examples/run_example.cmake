# Runs one example program for ctest and fails unless it exits 0, some
# output line matches EXPECT (when not empty) and no output line matches
# REJECT (when not empty). ctest's PASS_REGULAR_EXPRESSION would ignore
# the exit code, hence this script.
#
#   cmake -DEXE=<program> -DARGS=<args> -DEXPECT=<regex> -DREJECT=<regex>
#         -P run_example.cmake
execute_process(COMMAND "${EXE}" ${ARGS}
                OUTPUT_VARIABLE out ERROR_VARIABLE out
                RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

# One list element per output line (a ';' would split a line in two).
string(REPLACE ";" "," out "${out}")
string(REPLACE "\n" ";" lines "${out}")
set(expected_seen FALSE)
foreach(line IN LISTS lines)
  if(NOT EXPECT STREQUAL "" AND line MATCHES "${EXPECT}")
    set(expected_seen TRUE)
  endif()
  if(NOT REJECT STREQUAL "" AND line MATCHES "${REJECT}")
    message(FATAL_ERROR "wrong verdict: ${line}")
  endif()
endforeach()
if(NOT EXPECT STREQUAL "" AND NOT expected_seen)
  message(FATAL_ERROR "no output line matches '${EXPECT}'")
endif()
