# The spaden CLI must reject a bad scheduler spec by name, whether it comes
# from --sched or from SPADEN_SIM_SCHED: a non-zero exit status, and an
# error that names the source and contains EXPECT.
#
#   cmake -DCLI=<path to spaden> -DSPEC=<spec> -DVIA=flag|env
#         -DEXPECT=<literal text> -P cli_sched_rejects.cmake
set(run ${CLI} spmv cant --scale 0.01 --threads 1 --method csr)
if(VIA STREQUAL "flag")
  set(source "--sched")
  list(APPEND run --sched ${SPEC})
else()
  set(source "SPADEN_SIM_SCHED")
  set(run ${CMAKE_COMMAND} -E env SPADEN_SIM_SCHED=${SPEC} ${run})
endif()
execute_process(COMMAND ${run} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${SPEC}' via ${source} was accepted:\n${out}")
endif()
string(FIND "${err}" "${source}" at_source)
string(FIND "${err}" "${EXPECT}" at_expect)
if(at_source EQUAL -1 OR at_expect EQUAL -1)
  message(FATAL_ERROR
    "'${SPEC}' via ${source}: expected an error naming ${source} and '${EXPECT}', got:\n${err}")
endif()
